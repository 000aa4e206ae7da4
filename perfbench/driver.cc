// perfbench driver: host performance of putget-sim, measured through the
// library's public API only.
//
// One process runs one workload as a closed loop: each experiment call
// starts when the previous one returns. A pass is the workload's set-up
// phase (cluster construction, transport set-up, kernel assembly, timed
// apart) followed by its run phase (the run_* calls). Passes repeat
// until --seconds have elapsed. Every simulated result is rendered into
// a canonical text and hashed, so run.py can check it against the
// digests recorded in expected.json; the driver itself checks payload
// integrity, exactly-once delivery, T1 == Tn fingerprints and that
// every pass (traced or not) reproduces the first pass's digest.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --threads T [--spans FILE]
//   perfbench_driver --catalog W     (every item any seed can select)
//
// Prints one JSON object on stdout; run.py turns it into metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/flow.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probes.h"
#include "putget/experiments.h"
#include "putget/ring_workload.h"
#include "putget/transport.h"
#include "shmem/shmem.h"
#include "shmem/workloads.h"
#include "sys/cluster.h"
#include "sys/testbed.h"

namespace perfbench {
namespace {

using namespace pg;
using putget::QueueLocation;
using putget::RateVariant;
using putget::TransferMode;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// ---------------------------------------------------------------------------
// Host spans, recorded from this file around each public call. They stay
// in memory and are written out once the run ends.

class Spans {
 public:
  struct Span {
    const char* name;
    int parent;
    double t0, t1;
  };

  void enable(bool on) { on_ = on; }

  int open(const char* name) {
    if (!on_) return -1;
    spans_.push_back({name, current_, now_s(), 0.0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[idx].t1 = now_s();
    current_ = spans_[idx].parent;
  }

  std::size_t size() const { return spans_.size(); }

  /// Self time (duration minus the children's durations) summed by name
  /// over spans [first, size()).
  std::map<std::string, double> self_seconds(std::size_t first) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (std::size_t i = first; i < spans_.size(); ++i) {
      const int p = spans_[i].parent;
      if (p >= 0) child[p] += spans_[i].t1 - spans_[i].t0;
    }
    std::map<std::string, double> out;
    for (std::size_t i = first; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].t1 - spans_[i].t0 - child[i];
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" events, microseconds of host time).
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}",
                   i ? "," : "", s.name, s.t0 * 1e6, (s.t1 - s.t0) * 1e6, i,
                   s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool on_ = false;
  int current_ = -1;
  std::vector<Span> spans_;
};

Spans g_spans;

/// A span plus a host-seconds accumulator for the same interval.
class Timed {
 public:
  Timed(const char* name, double* acc = nullptr)
      : acc_(acc), idx_(g_spans.open(name)), t0_(now_s()) {}
  ~Timed() {
    if (acc_) *acc_ += now_s() - t0_;
    g_spans.close(idx_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  double* acc_;
  int idx_;
  double t0_;
};

// ---------------------------------------------------------------------------
// Checks and canonical result text.

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 32) failures.push_back(what);
    }
  }
};

/// Canonical rendering of one experiment's simulated results: every
/// double at full precision, every counter exactly.
class Text {
 public:
  Text& num(const char* k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s=%.17g;", k, v);
    s_ += buf;
    return *this;
  }
  Text& u(const char* k, std::uint64_t v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s=%" PRIu64 ";", k, v);
    s_ += buf;
    return *this;
  }
  Text& counters(const gpu::PerfCounters& c) {
    return u("instr", c.instructions_executed)
        .u("mem", c.memory_accesses)
        .u("sys_rd", c.sysmem_read_transactions)
        .u("sys_wr", c.sysmem_write_transactions)
        .u("glob_rd64", c.globmem_read64)
        .u("glob_wr64", c.globmem_write64)
        .u("glob_rd", c.globmem_read_other)
        .u("glob_wr", c.globmem_write_other)
        .u("l2_rd", c.l2_read_requests)
        .u("l2_hit", c.l2_read_hits)
        .u("l2_miss", c.l2_read_misses)
        .u("l2_wr", c.l2_write_requests)
        .u("sh_rd", c.shared_reads)
        .u("sh_wr", c.shared_writes)
        .u("br", c.branches)
        .u("div", c.divergent_branches)
        .u("warps", c.warps_launched)
        .u("blocks", c.blocks_launched)
        .u("kernels", c.kernels_launched);
  }
  const std::string& get() const { return s_; }

 private:
  std::string s_;
};

std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// ---------------------------------------------------------------------------
// Workload items. An item is one experiment configuration: a set-up
// recipe (the public set-up calls for that configuration, timed apart)
// and the run_* call itself.

struct SetupTimes {
  double cluster_s = 0;    // sys::Cluster construction
  double transport_s = 0;  // Transport::setup_* / Shmem::create
  double kernel_s = 0;     // build_gpu_* / build_rate_gpu
  double total() const { return cluster_s + transport_s + kernel_s; }
};

struct Outcome {
  std::string text;
  std::uint64_t events = 0;            // the result's event fingerprint
  std::uint64_t gpu_instructions = 0;  // initiator GPU, ping-pong runs
  std::uint64_t shmem_updates = 0;
  std::uint64_t notified_total = 0;
  std::uint64_t halo_puts = 0;
  std::uint64_t delivered = 0;
};

struct Item {
  std::string key;
  int leg = 0;  // cluster_rma: 1 = one engine thread, 2 = n threads
  std::uint32_t payload = 0;  // bytes, for the fill probe
  std::function<void(SetupTimes&, Checks&)> setup;
  std::function<Outcome(Checks&)> run;
};

enum class Fab { kExtoll, kIbHostQ, kIbGpuQ };

const char* fab_name(Fab f) {
  switch (f) {
    case Fab::kExtoll:
      return "extoll";
    case Fab::kIbHostQ:
      return "ib-hostq";
    case Fab::kIbGpuQ:
      return "ib-gpuq";
  }
  return "?";
}

sys::ClusterConfig fab_config(Fab f) {
  return f == Fab::kExtoll ? sys::extoll_testbed() : sys::ib_testbed();
}

std::unique_ptr<putget::Transport> make_transport(Fab f) {
  if (f == Fab::kExtoll) return std::make_unique<putget::ExtollTransport>();
  return std::make_unique<putget::IbTransport>(
      f == Fab::kIbHostQ ? QueueLocation::kHostMemory
                         : QueueLocation::kGpuMemory);
}

bool gpu_mode(TransferMode m) {
  return m == TransferMode::kGpuDirect || m == TransferMode::kGpuPollDevice;
}

std::string key_of(const char* proto, Fab f, const char* variant,
                   std::uint32_t size, char count_tag, std::uint32_t count) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s/%s/%s/%u/%c%u", proto, fab_name(f),
                variant, size, count_tag, count);
  return buf;
}

/// The public set-up calls of one two-node experiment, each timed into
/// its own bucket: cluster construction, `connect` (Transport::setup_*
/// or add_rate_conn) and, if it succeeded, `build` (kernel assembly).
using ConnectFn = std::function<Status(putget::Transport&, sys::Cluster&,
                                       const sys::ClusterConfig&)>;
using BuildFn = std::function<void(putget::Transport&)>;

void transport_setup(Fab f, const std::string& what, SetupTimes& st,
                     Checks& checks, const ConnectFn& connect,
                     const BuildFn& build) {
  const sys::ClusterConfig cfg = fab_config(f);
  auto t = make_transport(f);
  std::unique_ptr<sys::Cluster> cluster;
  {
    Timed tm("cluster_build", &st.cluster_s);
    cluster = std::make_unique<sys::Cluster>(cfg);
  }
  bool ok = false;
  {
    Timed tm("transport_setup", &st.transport_s);
    ok = connect(*t, *cluster, cfg).is_ok();
  }
  checks.expect(ok, what);
  if (ok && build) {
    Timed tm("kernel_build", &st.kernel_s);
    build(*t);
  }
}

Item pingpong_item(Fab f, TransferMode mode, std::uint32_t size,
                   std::uint32_t iters) {
  Item it;
  it.key = key_of("pp", f, putget::transfer_mode_name(mode), size, 'i', iters);
  it.payload = size;
  const std::string key = it.key;
  it.setup = [=](SetupTimes& st, Checks& checks) {
    transport_setup(
        f, key + ": setup_pingpong", st, checks,
        [=](putget::Transport& t, sys::Cluster& c,
            const sys::ClusterConfig& cfg) {
          return t.setup_pingpong(c, cfg, size,
                                  mode != TransferMode::kGpuPollDevice);
        },
        gpu_mode(mode) ? BuildFn([=](putget::Transport& t) {
          (void)t.build_gpu_pingpong(mode, size, iters);
        })
                       : BuildFn());
  };
  it.run = [=](Checks& checks) {
    auto t = make_transport(f);
    const auto r = putget::run_pingpong(*t, fab_config(f), mode, size, iters);
    checks.expect(r.payload_ok, key + ": payload_ok");
    Outcome o;
    o.events = r.events_scheduled;
    o.gpu_instructions = r.gpu0.instructions_executed;
    o.text = Text()
                 .num("half_rtt_us", r.half_rtt_us)
                 .num("post_sum_us", r.post_sum_us)
                 .num("poll_sum_us", r.poll_sum_us)
                 .u("iterations", r.iterations)
                 .u("payload_ok", r.payload_ok)
                 .u("events", r.events_scheduled)
                 .counters(r.gpu0)
                 .get();
    return o;
  };
  return it;
}

Item bandwidth_item(Fab f, TransferMode mode, std::uint32_t size,
                    std::uint32_t messages) {
  Item it;
  it.key = key_of("bw", f, putget::transfer_mode_name(mode), size, 'm',
                  messages);
  it.payload = size;
  const std::string key = it.key;
  it.setup = [=](SetupTimes& st, Checks& checks) {
    transport_setup(
        f, key + ": setup_stream", st, checks,
        [=](putget::Transport& t, sys::Cluster& c,
            const sys::ClusterConfig& cfg) {
          return t.setup_stream(c, cfg, size);
        },
        gpu_mode(mode) ? BuildFn([=](putget::Transport& t) {
          (void)t.build_gpu_stream(mode, size, messages);
        })
                       : BuildFn());
  };
  it.run = [=](Checks& checks) {
    auto t = make_transport(f);
    const auto r =
        putget::run_bandwidth(*t, fab_config(f), mode, size, messages);
    checks.expect(r.payload_ok && r.mb_per_s > 0, key + ": payload_ok");
    Outcome o;
    o.text = Text()
                 .num("mb_per_s", r.mb_per_s)
                 .u("bytes", r.bytes)
                 .u("payload_ok", r.payload_ok)
                 .get();
    return o;
  };
  return it;
}

Item rate_item(Fab f, RateVariant v, std::uint32_t pairs,
               std::uint32_t msgs) {
  constexpr std::uint32_t kMsgSize = 64;  // run_msgrate's message size
  Item it;
  it.key = key_of("rate", f, putget::rate_variant_name(v), pairs, 'm', msgs);
  it.payload = kMsgSize;
  const std::string key = it.key;
  it.setup = [=](SetupTimes& st, Checks& checks) {
    transport_setup(
        f, key + ": add_rate_conn", st, checks,
        [=](putget::Transport& t, sys::Cluster& c,
            const sys::ClusterConfig& cfg) {
          Status status = Status::ok();
          for (std::uint32_t i = 0; i < pairs && status.is_ok(); ++i) {
            status = t.add_rate_conn(c, cfg, i, kMsgSize);
          }
          return status;
        },
        v == RateVariant::kBlocks || v == RateVariant::kKernels
            ? BuildFn([=](putget::Transport& t) { t.build_rate_gpu(v); })
            : BuildFn());
  };
  it.run = [=](Checks& checks) {
    auto t = make_transport(f);
    const auto r = putget::run_msgrate(*t, fab_config(f), v, pairs, msgs);
    checks.expect(r.msgs_per_s > 0 && r.messages == pairs * msgs,
                  key + ": msgs_per_s");
    Outcome o;
    o.text =
        Text().num("msgs_per_s", r.msgs_per_s).u("messages", r.messages).get();
    return o;
  };
  return it;
}

// --- cluster_rma items ------------------------------------------------------

constexpr int kPes = 8;

const char* backend_name(putget::RmaBackend b) {
  return putget::rma_backend_name(b);
}

/// Set-up recipe shared by the shmem workloads: the 8-PE cluster the
/// workload builds (default testbed, full mesh) plus the symmetric heap.
void shmem_setup(putget::RmaBackend backend, int threads, SetupTimes& st,
                 Checks& checks, const std::string& key) {
  sys::ClusterConfig cc = sys::default_testbed();
  cc.num_nodes = kPes;
  cc.topology = net::Topology::kFullMesh;
  cc.threads = threads;
  std::unique_ptr<sys::Cluster> cluster;
  {
    Timed tm("cluster_build", &st.cluster_s);
    cluster = std::make_unique<sys::Cluster>(cc);
  }
  Timed tm("transport_setup", &st.transport_s);
  shmem::ShmemOptions so;
  so.backend = backend;
  checks.expect(shmem::Shmem::create(*cluster, so).is_ok(),
                key + ": Shmem::create");
}

struct GupsParams {
  putget::RmaBackend backend;
  shmem::GupsMode mode;
  std::uint32_t updates_per_pe;
  double zipf_s;
  std::uint64_t seed;
};

Item gups_item(const GupsParams& p, int threads, int leg) {
  Item it;
  char buf[160];
  std::snprintf(buf, sizeof buf, "gups/%s/%s/pes%d/u%u/z%.2f/s%" PRIu64,
                backend_name(p.backend), shmem::gups_mode_name(p.mode), kPes,
                p.updates_per_pe, p.zipf_s, p.seed);
  it.key = buf;
  it.leg = leg;
  it.payload = 8;
  const std::string key = it.key;
  it.setup = [=](SetupTimes& st, Checks& checks) {
    shmem_setup(p.backend, threads, st, checks, key);
  };
  it.run = [=](Checks& checks) {
    shmem::GupsConfig cfg;
    cfg.backend = p.backend;
    cfg.mode = p.mode;
    cfg.num_pes = kPes;
    cfg.updates_per_pe = p.updates_per_pe;
    cfg.zipf_s = p.zipf_s;
    cfg.seed = p.seed;
    cfg.threads = threads;
    const auto r = shmem::run_gups(cfg);
    checks.expect(r.verified && r.error.empty(), key + ": verified");
    checks.expect(r.updates == std::uint64_t{kPes} * p.updates_per_pe,
                  key + ": update count");
    if (p.mode == shmem::GupsMode::kPutNotify) {
      checks.expect(r.notified_total == r.updates,
                    key + ": exactly-once notifications");
    }
    Outcome o;
    o.events = r.events_executed;
    o.shmem_updates = r.updates;
    o.notified_total = r.notified_total;
    o.text = Text()
                 .u("verified", r.verified)
                 .u("updates", r.updates)
                 .num("sim_time_us", r.sim_time_us)
                 .num("gups", r.gups)
                 .u("checksum", r.checksum)
                 .u("notified_total", r.notified_total)
                 .u("events", r.events_executed)
                 .num("amo_p50_ns", r.amo_p50_ns)
                 .num("amo_p99_ns", r.amo_p99_ns)
                 .num("device_span_ns", r.device_span_ns)
                 .get();
    return o;
  };
  return it;
}

struct HaloParams {
  putget::RmaBackend backend;
  std::uint32_t nx, ny, iterations;
  std::uint64_t seed;
};

Item halo_item(const HaloParams& p, int threads, int leg) {
  Item it;
  char buf[160];
  std::snprintf(buf, sizeof buf, "halo2d/%s/4x2/%ux%u/it%u/s%" PRIu64,
                backend_name(p.backend), p.nx, p.ny, p.iterations, p.seed);
  it.key = buf;
  it.leg = leg;
  it.payload = p.nx * 8;
  const std::string key = it.key;
  it.setup = [=](SetupTimes& st, Checks& checks) {
    shmem_setup(p.backend, threads, st, checks, key);
  };
  it.run = [=](Checks& checks) {
    shmem::Halo2dConfig cfg;
    cfg.backend = p.backend;
    cfg.px = 4;
    cfg.py = 2;
    cfg.nx = p.nx;
    cfg.ny = p.ny;
    cfg.iterations = p.iterations;
    cfg.seed = p.seed;
    cfg.threads = threads;
    const auto r = shmem::run_halo2d(cfg);
    checks.expect(r.verified && r.error.empty(), key + ": verified");
    checks.expect(r.notified_total == r.halo_puts,
                  key + ": exactly-once notifications");
    Outcome o;
    o.events = r.events_executed;
    o.halo_puts = r.halo_puts;
    o.notified_total = r.notified_total;
    o.text = Text()
                 .u("verified", r.verified)
                 .u("iterations", r.iterations)
                 .u("halo_puts", r.halo_puts)
                 .num("sim_time_us", r.sim_time_us)
                 .u("checksum", r.checksum)
                 .u("notified_total", r.notified_total)
                 .u("events", r.events_executed)
                 .get();
    return o;
  };
  return it;
}

struct RingParams {
  putget::RingBackend backend;
  std::uint32_t cells, iterations;
};

sys::ClusterConfig ring_cluster(int threads) {
  sys::ClusterConfig cc = sys::default_testbed();
  cc.num_nodes = kPes;
  cc.topology = net::Topology::kTorus2D;
  cc.threads = threads;
  return cc;
}

Item ring_item(const RingParams& p, int threads, int leg) {
  Item it;
  char buf[160];
  std::snprintf(buf, sizeof buf, "ring/%s/torus2d/n%d/c%u/it%u",
                putget::ring_backend_name(p.backend), kPes, p.cells,
                p.iterations);
  it.key = buf;
  it.leg = leg;
  it.payload = 8;
  const std::string key = it.key;
  it.setup = [=](SetupTimes& st, Checks&) {
    Timed tm("cluster_build", &st.cluster_s);
    sys::Cluster cluster(ring_cluster(threads));
  };
  it.run = [=](Checks& checks) {
    putget::RingConfig rc;
    rc.backend = p.backend;
    rc.cells_per_node = p.cells;
    rc.iterations = p.iterations;
    rc.threads = threads;
    const auto r = putget::run_ring_halo_exchange(ring_cluster(threads), rc);
    checks.expect(r.verified, key + ": verified");
    checks.expect(r.delivered == r.halo_messages,
                  key + ": exactly-once delivery");
    Outcome o;
    o.events = r.events_scheduled;
    o.delivered = r.delivered;
    o.text = Text()
                 .u("verified", r.verified)
                 .u("nodes", static_cast<std::uint64_t>(r.num_nodes))
                 .u("iterations", r.iterations)
                 .num("sim_time_us", r.sim_time_us)
                 .u("halo_messages", r.halo_messages)
                 .u("delivered", r.delivered)
                 .u("events", r.events_scheduled)
                 .u("checksum", r.checksum)
                 .get();
    return o;
  };
  return it;
}

// ---------------------------------------------------------------------------
// Workloads. `seed` picks the size mix, the order and the GUPS / halo
// seeds, from finite menus, so that every item a seed can select is in
// the catalog and has a recorded digest. The menus are chosen so that a
// pass does about the same host work whatever the seed.

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

/// One entry of `menu` picked by `rng`, or every entry when there is no
/// rng (the catalog of everything a seed can select).
template <typename T>
std::vector<T> choose(const std::vector<T>& menu, Rng* rng) {
  if (!rng) return menu;
  return {menu[rng->next_below(menu.size())]};
}

// gpu_driven ----------------------------------------------------------------

struct GpuMode {
  Fab fab;
  TransferMode mode;
};
const std::vector<GpuMode> kGpuModes = {
    {Fab::kExtoll, TransferMode::kGpuDirect},      // sysmem notifications
    {Fab::kExtoll, TransferMode::kGpuPollDevice},  // L2 polling
    {Fab::kIbGpuQ, TransferMode::kGpuDirect},      // queues in GPU memory
};
// Small sizes: the seed picks one size of each octave pair. The large
// sizes, where the host time is, are fixed.
const std::vector<std::vector<std::uint32_t>> kGpuSmallSlots = {
    {4, 8}, {16, 32}, {64, 128}, {256, 512},
    {1024, 2048}, {4096, 8192}, {16384, 32768}};
const std::vector<std::uint32_t> kGpuLargeSizes = {65536, 262144, 1048576,
                                                   4194304, 16777216};
const std::vector<RateVariant> kGpuRateVariants = {RateVariant::kBlocks,
                                                   RateVariant::kKernels};
constexpr std::uint32_t kRatePairs = 32;
constexpr std::uint32_t kRateMsgs = 20;

std::uint32_t gpu_iters(std::uint32_t size) {
  if (size >= 1048576) return 2;
  if (size >= 65536) return 8;
  return 20;
}

std::vector<Item> gpu_driven(Rng* rng) {
  std::vector<Item> items;
  for (const GpuMode& m : kGpuModes) {
    std::vector<std::uint32_t> sizes;
    for (const auto& slot : kGpuSmallSlots) {
      for (std::uint32_t s : choose(slot, rng)) sizes.push_back(s);
    }
    sizes.insert(sizes.end(), kGpuLargeSizes.begin(), kGpuLargeSizes.end());
    for (std::uint32_t s : sizes) {
      items.push_back(pingpong_item(m.fab, m.mode, s, gpu_iters(s)));
    }
  }
  for (RateVariant v : kGpuRateVariants) {
    items.push_back(rate_item(Fab::kIbGpuQ, v, kRatePairs, kRateMsgs));
  }
  if (rng) shuffle(items, *rng);
  return items;
}

// host_bulk -----------------------------------------------------------------

struct HostCombo {
  Fab fab;
  TransferMode mode;
};
const std::vector<HostCombo> kHostCombos = {
    {Fab::kExtoll, TransferMode::kHostControlled},
    {Fab::kExtoll, TransferMode::kHostAssisted},
    {Fab::kIbHostQ, TransferMode::kHostControlled},
    {Fab::kIbHostQ, TransferMode::kHostAssisted},
};
// The seed picks the smallest size of each combination's sweep; the
// rest of the 256 KiB - 16 MiB axis is fixed, plus one 64 MiB
// host-controlled ping-pong (the largest single run of the paper suite).
const std::vector<std::uint32_t> kHostSmallSlot = {262144, 524288};
const std::vector<std::uint32_t> kHostPingPongSizes = {1048576, 4194304,
                                                       16777216};
const std::vector<std::uint32_t> kHostBandwidthSizes = {1048576, 4194304};
constexpr std::uint32_t kHostHugeSize = 67108864;

// Up to 1 MiB a ping-pong moves 2 MiB and a stream 8 MiB whatever the
// size, so the seed's pick of the smallest size leaves the work of a
// pass about the same.
std::uint32_t host_iters(std::uint32_t size) {
  return std::max<std::uint32_t>(1, (2u << 20) / size);
}
std::uint32_t host_msgs(std::uint32_t size) {
  return std::max<std::uint32_t>(2, (8u << 20) / size);
}

std::vector<Item> host_bulk(Rng* rng) {
  std::vector<Item> items;
  for (const HostCombo& h : kHostCombos) {
    std::vector<std::uint32_t> pp = choose(kHostSmallSlot, rng);
    pp.insert(pp.end(), kHostPingPongSizes.begin(), kHostPingPongSizes.end());
    std::vector<std::uint32_t> bw = choose(kHostSmallSlot, rng);
    bw.insert(bw.end(), kHostBandwidthSizes.begin(),
              kHostBandwidthSizes.end());
    for (std::uint32_t s : pp) {
      items.push_back(pingpong_item(h.fab, h.mode, s, host_iters(s)));
    }
    for (std::uint32_t s : bw) {
      items.push_back(bandwidth_item(h.fab, h.mode, s, host_msgs(s)));
    }
  }
  items.push_back(pingpong_item(Fab::kExtoll, TransferMode::kHostControlled,
                                kHostHugeSize, 1));
  if (rng) shuffle(items, *rng);
  return items;
}

// cluster_rma ---------------------------------------------------------------

const std::vector<putget::RmaBackend> kRmaBackends = {
    putget::RmaBackend::kExtoll, putget::RmaBackend::kIb};
const std::vector<shmem::GupsMode> kGupsModes = {shmem::GupsMode::kPutNotify,
                                                 shmem::GupsMode::kGpu};
constexpr std::uint32_t kGupsUpdates = 1024;
constexpr double kGupsZipf = 0.9;
const std::vector<std::uint64_t> kGupsSeeds = {1, 2, 3, 4, 5, 6, 7, 8};
const std::vector<std::uint64_t> kHaloSeeds = {1, 2, 3, 4, 5, 6, 7, 8};
constexpr std::uint32_t kHaloN = 16;
constexpr std::uint32_t kHaloIters = 32;
const std::vector<putget::RingBackend> kRingBackends = {
    putget::RingBackend::kExtoll, putget::RingBackend::kIb};
constexpr std::uint32_t kRingCells = 64;
constexpr std::uint32_t kRingIters = 96;

/// The configurations of one cluster_rma pass, as item factories taking
/// (threads, leg).
using RmaFactory = std::function<Item(int, int)>;

std::vector<RmaFactory> cluster_rma_configs(Rng* rng) {
  std::vector<RmaFactory> configs;
  for (auto b : kRmaBackends) {
    for (auto m : kGupsModes) {
      for (std::uint64_t s : choose(kGupsSeeds, rng)) {
        const GupsParams p{b, m, kGupsUpdates, kGupsZipf, s};
        configs.push_back([p](int t, int leg) { return gups_item(p, t, leg); });
      }
    }
    for (std::uint64_t s : choose(kHaloSeeds, rng)) {
      const HaloParams p{b, kHaloN, kHaloN, kHaloIters, s};
      configs.push_back([p](int t, int leg) { return halo_item(p, t, leg); });
    }
  }
  for (auto b : kRingBackends) {
    const RingParams p{b, kRingCells, kRingIters};
    configs.push_back([p](int t, int leg) { return ring_item(p, t, leg); });
  }
  if (rng) shuffle(configs, *rng);
  return configs;
}

/// Leg 1 runs every configuration on one engine thread, leg 2 the same
/// configurations, in the same order, on `threads`. The catalog (no rng)
/// needs leg 1 only: the legs' results are equal by construction.
std::vector<Item> cluster_rma(Rng* rng, int threads) {
  const auto configs = cluster_rma_configs(rng);
  std::vector<Item> items;
  for (const auto& make : configs) items.push_back(make(1, 1));
  if (!rng) return items;
  for (const auto& make : configs) items.push_back(make(threads, 2));
  return items;
}

// ---------------------------------------------------------------------------
// Passes.

struct PassResult {
  double wall_s = 0;   // the run_* calls
  double setup_s = 0;  // the public set-up calls
  SetupTimes setup;
  double leg_s[3] = {0, 0, 0};  // cluster_rma: [1] = T1, [2] = Tn
  std::string digest;
  std::vector<std::pair<std::string, std::string>> item_digests;
  std::vector<Outcome> outcomes;
};

// Exact counters the traced pass reads from the MetricsRegistry, with
// the per-layer metric name each is reported under.
const std::vector<std::pair<const char*, const char*>> kRegistryCounters = {
    {"putget.ops", "putget.ops"},
    {"gpu.kernels", "gpu.kernels"},
    {"gpu.l2_loads", "gpu.l2_loads"},
    {"gpu.l2_load_misses", "gpu.l2_load_misses"},
    {"gpu.sysmem_loads", "gpu.sysmem_loads"},
    {"pcie.read_tlps", "pcie.read_tlps"},
    {"pcie.write_tlps", "pcie.write_tlps"},
    {"dma.reads", "pcie.dma_reads"},
    {"p2p.reads", "pcie.p2p_reads"},
    {"p2p.page_misses", "pcie.p2p_page_misses"},
    {"extoll.puts_posted", "nic.extoll.puts_posted"},
    {"extoll.notifications", "nic.extoll.notifications"},
    {"ib.doorbells", "nic.ib.doorbells"},
    {"ib.wqe_fetches", "nic.ib.wqe_fetches"},
    {"ib.cqes", "nic.ib.cqes"},
};

/// The registry counters above, in order; empty with no registry attached.
std::vector<std::uint64_t> registry_snapshot() {
  std::vector<std::uint64_t> v;
  if (obs::MetricsRegistry* m = obs::metrics()) {
    for (const auto& [src, dst] : kRegistryCounters) {
      v.push_back(m->counter(src).value());
    }
  }
  return v;
}

/// With `trace_events` set, each run_* call gets a fresh TraceRecorder
/// and FlowTable (attached, counted, then dropped): the simulated-system
/// trace of one experiment is the most that is held in memory, and no
/// lifecycle flow left open by one experiment is matched in the next.
PassResult run_pass(const std::vector<Item>& items, Checks& checks,
                    std::uint64_t* trace_events = nullptr) {
  PassResult res;
  Timed pass("pass");
  {
    Timed tm("setup");
    for (const Item& it : items) it.setup(res.setup, checks);
  }
  res.setup_s = res.setup.total();
  {
    Timed tm("runs", &res.wall_s);
    std::size_t i = 0;
    // Registry counters and trace events added by each leg.
    std::vector<std::uint64_t> leg_counts[3];
    std::uint64_t leg_events[3] = {0, 0, 0};
    while (i < items.size()) {
      const int leg = items[i].leg;
      const std::vector<std::uint64_t> before = registry_snapshot();
      std::optional<Timed> leg_span;
      if (leg != 0) leg_span.emplace(leg == 1 ? "t1" : "tn", &res.leg_s[leg]);
      for (; i < items.size() && items[i].leg == leg; ++i) {
        Outcome o;
        {
          std::optional<obs::TraceRecorder> recorder;
          std::optional<obs::FlowTable> flows;
          if (trace_events) {
            obs::attach_recorder(&recorder.emplace());
            obs::attach_flows(&flows.emplace());
          }
          {
            Timed run("run");
            o = items[i].run(checks);
          }
          if (trace_events) {
            obs::attach_flows(nullptr);
            obs::attach_recorder(nullptr);
            leg_events[leg] += recorder->event_count();
          }
        }
        res.item_digests.emplace_back(items[i].key, hex64(fnv1a(o.text)));
        res.outcomes.push_back(std::move(o));
      }
      leg_counts[leg] = registry_snapshot();
      for (std::size_t c = 0; c < before.size(); ++c) {
        leg_counts[leg][c] -= before[c];
      }
    }
    if (trace_events) {
      *trace_events = leg_events[0] + leg_events[1] + leg_events[2];
      if (!leg_counts[2].empty()) {
        checks.expect(leg_counts[1] == leg_counts[2],
                      "T1 == Tn registry counts");
        checks.expect(leg_events[1] == leg_events[2],
                      "T1 == Tn trace events " +
                          std::to_string(leg_events[1]) + " vs " +
                          std::to_string(leg_events[2]));
      }
    }
  }
  std::uint64_t h = fnv1a("perfbench");
  for (const auto& [key, d] : res.item_digests) h = fnv1a(key + "=" + d, h);
  res.digest = hex64(h);
  // T1 and Tn give the same simulated results, item by item.
  for (std::size_t a = 0; a < items.size(); ++a) {
    if (items[a].leg != 1) continue;
    for (std::size_t b = 0; b < items.size(); ++b) {
      if (items[b].leg == 2 && items[b].key == items[a].key) {
        checks.expect(res.outcomes[a].text == res.outcomes[b].text,
                      items[a].key + ": T1 == Tn");
      }
    }
  }
  return res;
}

/// Every exact count of one pass, by per-layer metric name.
std::map<std::string, std::uint64_t> exact_counts(
    const PassResult& res, obs::MetricsRegistry& reg) {
  std::map<std::string, std::uint64_t> c;
  for (const auto& [src, dst] : kRegistryCounters) {
    c[dst] = reg.counter(src).value();
  }
  for (const Outcome& o : res.outcomes) {
    c["sim.events"] += o.events;
    c["gpu.instructions"] += o.gpu_instructions;
    c["shmem.updates"] += o.shmem_updates;
    c["shmem.notified_total"] += o.notified_total;
    c["shmem.halo_puts"] += o.halo_puts;
    c["net.messages_delivered"] += o.delivered;
  }
  return c;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- JSON output ------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    s += (i ? "," : "") + json_num(v[i]);
  }
  return s + "]";
}

std::string json_items(
    const std::vector<std::pair<std::string, std::string>>& items) {
  std::string s = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    s += (i ? ",[" : "[") + json_str(items[i].first) + "," +
         json_str(items[i].second) + "]";
  }
  return s + "]";
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  int threads = 1;
  std::string spans_path;
  bool catalog = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--catalog" && i + 1 < argc) {
      a.catalog = true;
      a.workload = argv[++i];
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--threads") {
      a.threads = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--spans") {
      a.spans_path = v;
    } else {
      return false;
    }
    if (end && *end != '\0') return false;
  }
  return !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1) && a.threads >= 1 && a.threads <= 64;
}

std::optional<std::vector<Item>> workload_items(const Args& a) {
  std::optional<Rng> seeded;
  if (!a.catalog) seeded.emplace(a.seed);
  Rng* rng = seeded ? &*seeded : nullptr;
  if (a.workload == "gpu_driven") return gpu_driven(rng);
  if (a.workload == "host_bulk") return host_bulk(rng);
  if (a.workload == "cluster_rma") return cluster_rma(rng, a.threads);
  return std::nullopt;
}

std::string params_json(const Args& a, const std::vector<Item>& items) {
  std::string keys = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    keys += (i ? "," : "") + json_str(items[i].key);
  }
  keys += "]";
  return "{\"workload\":" + json_str(a.workload) +
         ",\"seed\":" + std::to_string(a.seed) +
         ",\"engine_threads\":" + std::to_string(a.threads) +
         ",\"items\":" + keys + "}";
}

int run_catalog(const Args& a, const std::vector<Item>& items) {
  Checks checks;
  std::vector<std::pair<std::string, std::string>> digests;
  for (const Item& it : items) {
    const Outcome o = it.run(checks);
    digests.emplace_back(it.key, hex64(fnv1a(o.text)));
  }
  std::printf("{\"workload\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"items\":%s}\n",
              json_str(a.workload).c_str(), checks.attempted, checks.failed,
              json_items(digests).c_str());
  return checks.failed == 0 ? 0 : 1;
}

int run_benchmark(const Args& a, const std::vector<Item>& items) {
  Checks checks;
  const double t_start = now_s();
  std::vector<double> wall, setup, leg1, leg2;

  // The first pass fills the allocator's heap and the page tables; its
  // times are not reported, its checks and digest are.
  const PassResult first = run_pass(items, checks);

  auto untraced_pass = [&] {
    PassResult res = run_pass(items, checks);
    wall.push_back(res.wall_s);
    setup.push_back(res.setup_s);
    leg1.push_back(res.leg_s[1]);
    leg2.push_back(res.leg_s[2]);
    checks.expect(res.digest == first.digest, "pass digest repeats");
  };

  std::string per_layer;
  if (a.trace == 0) {
    do {
      untraced_pass();
    } while (now_s() - t_start < a.seconds || wall.size() < 3);
  } else {
    std::vector<std::uint32_t> sizes;
    for (const Item& it : items) sizes.push_back(it.payload);
    std::sort(sizes.begin(), sizes.end());
    sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
    const ProbeResults probes = run_probes(sizes);

    // Untraced and traced passes alternate, so the overhead ratio
    // compares passes that saw the same host conditions.
    std::vector<double> traced_wall, cluster_s, putget_setup_s;
    std::map<std::string, std::vector<double>> self_s;
    std::optional<std::map<std::string, std::uint64_t>> counts;
    std::uint64_t trace_events = 0;
    do {
      untraced_pass();
      obs::MetricsRegistry registry;
      obs::attach_metrics(&registry);
      g_spans.enable(true);
      const std::size_t span0 = g_spans.size();
      std::uint64_t events = 0;
      PassResult res = run_pass(items, checks, &events);
      g_spans.enable(false);
      obs::attach_metrics(nullptr);

      checks.expect(res.digest == first.digest, "traced digest == untraced");
      const auto c = exact_counts(res, registry);
      if (counts) {
        checks.expect(c == *counts, "exact counts repeat across passes");
        checks.expect(events == trace_events, "trace events repeat");
      } else {
        counts = c;
        trace_events = events;
      }
      traced_wall.push_back(res.wall_s);
      cluster_s.push_back(res.setup.cluster_s);
      putget_setup_s.push_back(res.setup.transport_s + res.setup.kernel_s);
      for (const auto& [name, s] : g_spans.self_seconds(span0)) {
        self_s[name].push_back(s);
      }
    } while (now_s() - t_start < a.seconds || traced_wall.size() < 2);

    std::map<std::string, double> m;
    for (const auto& [name, v] : *counts) m[name] = static_cast<double>(v);
    m["sys.cluster_build_s"] = median(cluster_s);
    m["putget.setup_s"] = median(putget_setup_s);
    m["putget.fill_ns_per_byte"] = probes.fill_ns_per_byte;
    m["putget.run_s"] = median(traced_wall);
    m["sim.host_ns_per_event"] = probes.sim_ns_per_event;
    const double t1 = median(leg1), tn = median(leg2);
    m["sim.pdes.t1_s"] = t1;
    m["sim.pdes.tn_s"] = tn;
    m["sim.pdes.speedup"] = tn > 0 ? t1 / tn : 0;
    m["gpu.host_ns_per_instr"] = probes.gpu_ns_per_instr;
    const double loads = m["gpu.l2_loads"] + m["gpu.sysmem_loads"];
    m["gpu.poll_yield"] = loads > 0 ? m["putget.ops"] / loads : 0;
    m["gpu.l2_invalidate_ns"] = probes.l2_invalidate_ns;
    m["pcie.host_ns_per_read"] = probes.pcie_ns_per_read;
    m["mem.sparse_mb_per_s"] = probes.sparse_mb_per_s;
    m["obs.overhead_ratio"] = median(traced_wall) / median(wall);
    m["obs.trace_events"] = static_cast<double>(trace_events);
    for (const char* name : {"setup", "cluster_build", "transport_setup",
                             "kernel_build", "t1", "tn", "run"}) {
      const auto it = self_s.find(name);
      m[std::string("span.") + name + ".self_s"] =
          it == self_s.end() ? 0.0 : median(it->second);
    }
    per_layer = "{";
    for (const auto& [name, v] : m) {
      per_layer += (per_layer.size() > 1 ? "," : "") + json_str(name) + ":" +
                   json_num(v);
    }
    per_layer += "}";
    if (!a.spans_path.empty() && !g_spans.write_chrome_json(a.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   a.spans_path.c_str());
    }
  }

  std::string failures = "[";
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    failures += (i ? "," : "") + json_str(checks.failures[i]);
  }
  failures += "]";
  std::printf(
      "{\"params\":%s,\"build_type\":%s,\"compiler\":%s,\"passes\":%zu,"
      "\"wall_s\":%s,\"setup_s\":%s,\"peak_rss_mb\":%s,\"attempted\":%" PRIu64
      ",\"failed\":%" PRIu64 ",\"failures\":%s,\"digest\":%s,\"items\":%s,"
      "\"per_layer\":%s}\n",
      params_json(a, items).c_str(), json_str(PERFBENCH_BUILD_TYPE).c_str(),
      json_str(PERFBENCH_COMPILER).c_str(), wall.size(),
      json_list(wall).c_str(), json_list(setup).c_str(),
      json_num(peak_rss_mb()).c_str(),
      checks.attempted, checks.failed, failures.c_str(),
      json_str(first.digest).c_str(), json_items(first.item_digests).c_str(),
      per_layer.empty() ? "{}" : per_layer.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed N --seconds S "
                 "--trace 0|1 --threads T [--spans FILE]\n"
                 "       perfbench_driver --catalog W\n");
    return 2;
  }
  auto items = workload_items(a);
  if (!items) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  return a.catalog ? run_catalog(a, *items) : run_benchmark(a, *items);
}
