// Tracked simulator-performance baseline.
//
// Measures the host-time cost of the three simulation hot paths (event
// engine, PTX-lite interpreter, sparse memory), the payload fill, the
// end-to-end wall-clock of the two heaviest figure sweeps, a host-polled
// bulk ping-pong with its executed vs fast-forwarded poll probes, the
// payload datapath of a bulk device-driven ping-pong, and the
// parallel-engine scaling matrix (ring workload, nodes x threads, every
// cell hard-gated to the threads=1 fingerprint), and writes the numbers
// to a JSON file (default BENCH_simcore.json) so CI can archive them and
// regressions show up as a diff, not an anecdote.
//
//   simcore_perf [--json=FILE]
//
// Workloads are fixed-size, so two runs on the same machine are directly
// comparable; compare ratios, not absolute numbers, across machines.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gpu/assembler.h"
#include "gpu/device.h"
#include "mem/sparse_memory.h"
#include "obs/flow.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pcie/fabric.h"
#include "putget/extoll_experiments.h"
#include "putget/ring_workload.h"
#include "putget/setup.h"
#include "sim/simulation.h"
#include "sys/testbed.h"

namespace {

using namespace pg;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Event engine: steady-state schedule+dispatch cost per event. 512
/// self-rescheduling chains keep the heap at a realistic in-flight
/// depth (an experiment's concurrent transactions) instead of measuring
/// one giant fill-and-drain.
double bench_event_queue_ns(std::uint64_t* events_out) {
  constexpr std::uint64_t kEvents = 2'000'000;
  constexpr unsigned kChains = 512;
  sim::Simulation sim;
  std::uint64_t remaining = kEvents;
  struct Pump {
    sim::Simulation* sim;
    std::uint64_t* remaining;
    void operator()() const {
      if (*remaining == 0) return;
      --*remaining;
      sim->schedule(100, *this);
    }
  };
  const auto start = Clock::now();
  for (unsigned c = 0; c < kChains; ++c) {
    sim.schedule(static_cast<SimDuration>(c), Pump{&sim, &remaining});
  }
  sim.run();
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  *events_out = kEvents;
  return ns / static_cast<double>(kEvents);
}

/// Interpreter: a tight dependent ALU loop, the instruction mix the
/// device put/get library spends its time in between memory operations.
double bench_interpreter_instr_per_s(std::uint64_t* instrs_out) {
  gpu::Assembler a("alu_loop");
  const gpu::Reg n(8), x(9), p(10);
  a.movi(n, 0);
  a.movi(x, 1);
  a.bind("loop");
  a.muli(x, x, 3);
  a.addi(x, x, 7);
  a.xor_(x, x, n);
  a.addi(n, n, 1);
  a.setpi(gpu::Cmp::kLt, p, n, 10000);
  a.bra_if(p, "loop");
  a.exit();
  auto prog = a.finish();
  constexpr int kReps = 50;
  std::uint64_t instrs = 0;
  const auto start = Clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    sim::Simulation sim;
    mem::MemoryDomain memory;
    pcie::Fabric fabric(sim, memory, pcie::FabricConfig{});
    gpu::Gpu gpu(sim, fabric, memory, gpu::GpuConfig{}, "bench");
    bool done = false;
    gpu.launch({.program = &prog.value(), .params = {}},
               [&done] { done = true; });
    sim.run_until_condition([&] { return done; });
    instrs += gpu.counters().instructions_executed;
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  *instrs_out = instrs;
  return static_cast<double>(instrs) / secs;
}

/// Sparse memory: streaming 8-byte stores then loads over a 64 MiB
/// region (page-allocating on the way in, cache-hitting on the way out).
double bench_memory_mb_per_s(std::uint64_t* bytes_out) {
  constexpr std::uint64_t kBytes = 64 * MiB;
  mem::SparseMemory m(kBytes);
  const auto start = Clock::now();
  for (std::uint64_t off = 0; off < kBytes; off += 8) {
    m.write_u64(off, off * 0x9e3779b97f4a7c15ull);
  }
  std::uint64_t sink = 0;
  for (std::uint64_t off = 0; off < kBytes; off += 8) {
    sink ^= m.read_u64(off);
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  // Keep the reads alive without polluting stdout.
  if (sink == 0xdeadbeef) std::fprintf(stderr, "sink\n");
  *bytes_out = 2 * kBytes;
  return static_cast<double>(2 * kBytes) / (1024.0 * 1024.0) / secs;
}

/// Payload fill: one 64 MiB putget::fill_pattern into fresh GPU DRAM
/// pages, the set-up cost of every large transfer. The filled bytes are
/// checked against the scalar next_byte() stream through an FNV-1a hash,
/// so neither side holds a payload-sized copy.
struct PayloadFill {
  double ns_per_byte = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t fnv1a = 0;
  const char* isa = Rng::fill_isa();
};

std::uint64_t fnv1a_step(std::uint64_t h, std::uint8_t byte) {
  return (h ^ byte) * 0x100000001b3ull;
}

PayloadFill bench_payload_fill() {
  constexpr std::uint64_t kBytes = 64 * MiB;
  constexpr std::uint64_t kSeed = 101;
  constexpr std::uint64_t kPage = mem::SparseMemory::kPageSize;
  PayloadFill out;
  out.bytes = kBytes;
  sys::Cluster cluster(sys::extoll_testbed());
  sys::Node& node = cluster.node(0);
  const mem::Addr addr = mem::AddressMap::kGpuDramBase + 1 * GiB;
  // A one-group fill elsewhere first, so the one-off build of the jump
  // matrix is not timed.
  putget::fill_pattern(node, addr + 2 * kBytes, Rng::kLanes * kPage, kSeed);
  const auto start = Clock::now();
  putget::fill_pattern(node, addr, kBytes, kSeed);
  out.ns_per_byte =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
      static_cast<double>(kBytes);

  std::uint64_t want = 0xcbf29ce484222325ull;
  Rng ref(kSeed);
  for (std::uint64_t i = 0; i < kBytes; ++i) {
    want = fnv1a_step(want, ref.next_byte());
  }
  out.fnv1a = 0xcbf29ce484222325ull;
  for (std::uint64_t off = 0; off < kBytes; off += kPage) {
    const std::uint8_t* page = node.memory().span_in_page(addr + off, kPage);
    for (std::uint64_t i = 0; i < kPage; ++i) {
      out.fnv1a = fnv1a_step(out.fnv1a, page ? page[i] : 0);
    }
  }
  if (out.fnv1a != want) {
    std::fprintf(stderr,
                 "payload_fill FAILED: fnv1a %016llx, scalar reference "
                 "%016llx\n",
                 static_cast<unsigned long long>(out.fnv1a),
                 static_cast<unsigned long long>(want));
    std::exit(1);
  }
  return out;
}

/// End-to-end: the Fig. 1a latency sweep (all four transfer modes).
double bench_fig1_wall_ms() {
  using putget::TransferMode;
  const auto cfg = sys::extoll_testbed();
  const TransferMode modes[] = {
      TransferMode::kGpuDirect, TransferMode::kGpuPollDevice,
      TransferMode::kHostAssisted, TransferMode::kHostControlled};
  const auto start = Clock::now();
  for (std::uint32_t size : {4u, 16u, 64u, 256u, 1024u, 4096u, 16384u,
                             65536u, 262144u}) {
    const std::uint32_t iters = size >= 65536 ? 20 : 40;
    for (TransferMode mode : modes) {
      const auto r = putget::run_extoll_pingpong(cfg, mode, size, iters);
      if (!r.payload_ok) {
        std::fprintf(stderr, "fig1 workload FAILED at %u bytes\n", size);
        std::exit(1);
      }
    }
  }
  return ms_since(start);
}

/// End-to-end: the Fig. 2 message-rate sweep (all four variants).
double bench_fig2_wall_ms() {
  using putget::RateVariant;
  const auto cfg = sys::extoll_testbed();
  const RateVariant variants[] = {
      RateVariant::kBlocks, RateVariant::kKernels, RateVariant::kAssisted,
      RateVariant::kHostControlled};
  const auto start = Clock::now();
  for (std::uint32_t pairs : {1u, 2u, 4u, 8u, 16u, 24u, 32u}) {
    for (RateVariant v : variants) {
      const auto r = putget::run_extoll_msgrate(cfg, v, pairs, 40);
      if (r.msgs_per_s <= 0) {
        std::fprintf(stderr, "fig2 workload FAILED at %u pairs\n", pairs);
        std::exit(1);
      }
    }
  }
  return ms_since(start);
}

/// One 16 MiB EXTOLL ping-pong whose waits are poll loops, timed whole.
struct PollRun {
  double wall_ms = 0.0;
  putget::PingPongResult result;
};

PollRun bench_poll(const char* name, putget::TransferMode mode) {
  const auto start = Clock::now();
  PollRun out;
  out.result =
      putget::run_extoll_pingpong(sys::extoll_testbed(), mode, 16u << 20, 1);
  out.wall_ms = ms_since(start);
  if (!out.result.payload_ok) {
    std::fprintf(stderr, "%s workload FAILED\n", name);
    std::exit(1);
  }
  return out;
}

/// Host polling: host-controlled. The host CPUs spin on notifications
/// for the whole transfer; most of their probes are charged by the
/// poll-loop fast-forward instead of run.
PollRun bench_host_poll() {
  return bench_poll("host_poll", putget::TransferMode::kHostControlled);
}

/// Payload datapath: one 16 MiB EXTOLL dev2dev-direct ping-pong, in
/// which every payload byte is DMA-read, carried by the wire frames and
/// written at the target, in both directions. Reported as host ns per
/// payload byte moved; the whole call is timed, so cluster build and
/// pattern fill are a fixed part of it. The event count is fixed by the
/// model: a different count means the datapath changed what it
/// simulates, not only how fast, and fails the bench.
constexpr std::uint32_t kPayloadPathBytes = 16u << 20;
constexpr std::uint64_t kPayloadPathEvents = 93209;

struct PayloadPathRun {
  double wall_ms = 0.0;
  double ns_per_byte = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
};

PayloadPathRun bench_payload_path() {
  const auto start = Clock::now();
  const putget::PingPongResult r = putget::run_extoll_pingpong(
      sys::extoll_testbed(), putget::TransferMode::kGpuDirect,
      kPayloadPathBytes, 1);
  PayloadPathRun out;
  out.wall_ms = ms_since(start);
  out.bytes = 2ull * kPayloadPathBytes * r.iterations;
  out.ns_per_byte = out.wall_ms * 1e6 / static_cast<double>(out.bytes);
  out.events = r.events_scheduled;
  if (!r.payload_ok) {
    std::fprintf(stderr, "payload_path workload FAILED\n");
    std::exit(1);
  }
  if (out.events != kPayloadPathEvents) {
    std::fprintf(stderr,
                 "payload_path FAILED: %llu events scheduled, the model "
                 "schedules %llu\n",
                 static_cast<unsigned long long>(out.events),
                 static_cast<unsigned long long>(kPayloadPathEvents));
    std::exit(1);
  }
  return out;
}

/// Device polling: dev2dev-pollOnGPU. Each GPU spins one warp on the
/// payload's last word in its own device memory, an L2 hit per probe,
/// for the whole transfer; the host does not poll, so every probe
/// counted here is a warp's. Most of them are charged by the device
/// poll-loop fast-forward instead of run. The event count is that of the
/// stepped interpreter and gates the bench like payload_path's.
constexpr std::uint64_t kDevicePollEvents = 367889;

PollRun bench_device_poll() {
  PollRun out =
      bench_poll("device_poll", putget::TransferMode::kGpuPollDevice);
  if (out.result.events_scheduled != kDevicePollEvents) {
    std::fprintf(stderr,
                 "device_poll FAILED: %llu events scheduled, the model "
                 "schedules %llu\n",
                 static_cast<unsigned long long>(out.result.events_scheduled),
                 static_cast<unsigned long long>(kDevicePollEvents));
    std::exit(1);
  }
  return out;
}

// --- Parallel-engine scaling matrix --------------------------------

// One cell of the PDES matrix: the ring halo-exchange workload at a
// given cluster size and worker count.
struct PdesCell {
  int nodes = 0;
  int threads = 0;
  double wall_ms = 0.0;
  double speedup = 1.0;  // vs the threads=1 cell of the same node count
  std::uint64_t checksum = 0;
  std::uint64_t events = 0;
};

// Small per-node state with many iterations puts the run in the
// communication/poll-dominated regime, where engine cost (scheduling,
// heap discipline, window synchronization) is the bill being measured
// — large cell counts shift time into modeled payload work that both
// engines pay identically and only dilutes the comparison.
constexpr std::uint32_t kPdesCells = 8;
constexpr std::uint32_t kPdesIters = 200;
// Timing reps per (nodes, threads) cell. Reps are interleaved across
// thread counts and the minimum wall per cell is reported — the
// standard estimator for "cost of the work itself" on a machine with
// background load (every source of noise only ever adds time).
constexpr int kPdesReps = 12;
// The link latency is the conservative lookahead, i.e. how much work a
// shard may run ahead of a synchronization fence. The scaling matrix
// uses a rack-scale 2 us link (vs the paper testbed's 400 ns
// board-to-board hop) so the windows are wide enough to measure engine
// scaling rather than barrier overhead.
constexpr SimDuration kPdesLinkLatency = microseconds(2);

/// One timed run of the N-node EXTOLL ring workload on `threads` engine
/// workers. The checksum/fingerprint of every run is hard-gated against
/// threads=1 by the caller: the parallel engine must be byte-equivalent,
/// not just fast.
PdesCell run_pdes_once(int nodes, int threads, bool classic_engine = false) {
  sys::ClusterConfig cfg = sys::extoll_testbed();
  cfg.num_nodes = nodes;
  cfg.topology = net::Topology::kRing;
  cfg.extoll_net.latency = kPdesLinkLatency;
  cfg.force_classic_engine = classic_engine;
  putget::RingConfig ring;
  ring.backend = putget::RingBackend::kExtoll;
  ring.cells_per_node = kPdesCells;
  ring.iterations = kPdesIters;
  ring.threads = threads;
  const auto start = Clock::now();
  const putget::RingResult r = putget::run_ring_halo_exchange(cfg, ring);
  PdesCell cell;
  cell.nodes = nodes;
  cell.threads = threads;
  cell.wall_ms = ms_since(start);
  cell.checksum = r.checksum;
  cell.events = r.events_scheduled;
  if (!r.verified || r.delivered != r.halo_messages) {
    std::fprintf(stderr, "pdes ring FAILED at nodes=%d threads=%d\n", nodes,
                 threads);
    std::exit(1);
  }
  return cell;
}

/// The full matrix, with the determinism gate: any run whose checksum or
/// event fingerprint differs from threads=1 fails the bench. Reps
/// alternate thread counts back-to-back so a load spike hits every
/// configuration equally instead of biasing one column.
std::vector<PdesCell> bench_pdes_matrix() {
  constexpr int kThreads[] = {1, 2, 4, 8};
  std::vector<PdesCell> cells;
  for (int nodes : {2, 4, 8}) {
    PdesCell best[4];
    for (int rep = 0; rep < kPdesReps; ++rep) {
      for (std::size_t t = 0; t < 4; ++t) {
        const PdesCell c = run_pdes_once(nodes, kThreads[t]);
        if (c.checksum != best[0].checksum || c.events != best[0].events) {
          if (rep == 0 && t == 0) {  // first run defines the fingerprint
            best[0] = c;
            continue;
          }
          std::fprintf(stderr,
                       "pdes DETERMINISM FAILURE at nodes=%d threads=%d: "
                       "checksum %llu vs %llu, events %llu vs %llu\n",
                       nodes, kThreads[t],
                       static_cast<unsigned long long>(c.checksum),
                       static_cast<unsigned long long>(best[0].checksum),
                       static_cast<unsigned long long>(c.events),
                       static_cast<unsigned long long>(best[0].events));
          std::exit(1);
        }
        if (best[t].nodes == 0 || c.wall_ms < best[t].wall_ms) best[t] = c;
      }
    }
    for (std::size_t t = 0; t < 4; ++t) {
      best[t].speedup = best[0].wall_ms / best[t].wall_ms;
      cells.push_back(best[t]);
    }
  }
  return cells;
}

// --- Traced scaling -------------------------------------------------

// One cell of the traced matrix: the same ring workload with every
// observability sink attached (trace + metrics + flows). Before the
// shard-aware sinks this configuration silently fell back to the
// sequential engine; that old behavior is kept measurable as the
// "classic" baseline row (force_classic_engine pins the single heap),
// and the gate below requires the serialized output of every sink to be
// byte-identical across the sharded thread counts.
struct TracedCell {
  const char* engine = "sharded";
  int threads = 0;
  double wall_ms = 0.0;
  double speedup = 1.0;  // vs the sequential classic-engine cell
};

constexpr int kTracedNodes = 8;
constexpr int kTracedReps = 7;

double run_pdes_traced_once(int threads, bool classic_engine,
                            std::string* trace_json,
                            std::string* metrics_json,
                            std::string* flow_json) {
  obs::TraceRecorder rec;
  obs::MetricsRegistry met;
  obs::FlowTable flows;
  obs::attach_recorder(&rec);
  obs::attach_metrics(&met);
  obs::attach_flows(&flows);
  const auto start = Clock::now();
  const PdesCell c = run_pdes_once(kTracedNodes, threads, classic_engine);
  const double wall = ms_since(start);
  (void)c;
  obs::attach_recorder(nullptr);
  obs::attach_metrics(nullptr);
  obs::attach_flows(nullptr);
  *trace_json = rec.to_json();
  *metrics_json = met.snapshot_json();
  *flow_json = flows.snapshot_json();
  return wall;
}

/// Traced matrix at the largest node count: the classic single-heap
/// engine (what an attached sink used to force) as the sequential
/// baseline, then the sharded engine at one and four workers. The
/// sharded cells are byte-parity gated against each other: a single
/// differing byte in any sink's JSON is a determinism failure, exactly
/// like a checksum mismatch in the untraced matrix. The classic cell is
/// timing-only — its single global tie-break counter orders
/// same-timestamp events differently, which is the very reason routed
/// clusters now shard at every thread count.
std::vector<TracedCell> bench_pdes_traced() {
  struct Cfg {
    const char* engine;
    int threads;
    bool classic;
  };
  constexpr Cfg kCfgs[] = {
      {"classic", 1, true}, {"sharded", 1, false}, {"sharded", 4, false}};
  std::string ref_trace, ref_metrics, ref_flows;
  TracedCell best[3];
  for (int rep = 0; rep < kTracedReps; ++rep) {
    for (std::size_t t = 0; t < 3; ++t) {
      std::string trace, metrics, flows;
      const double wall = run_pdes_traced_once(
          kCfgs[t].threads, kCfgs[t].classic, &trace, &metrics, &flows);
      if (!kCfgs[t].classic) {
        if (ref_trace.empty()) {
          ref_trace = trace;
          ref_metrics = metrics;
          ref_flows = flows;
        } else if (trace != ref_trace || metrics != ref_metrics ||
                   flows != ref_flows) {
          std::fprintf(stderr,
                       "pdes TRACED-DETERMINISM FAILURE at nodes=%d "
                       "threads=%d: sink output differs from threads=1\n",
                       kTracedNodes, kCfgs[t].threads);
          std::exit(1);
        }
      }
      if (best[t].threads == 0 || wall < best[t].wall_ms) {
        best[t].engine = kCfgs[t].engine;
        best[t].threads = kCfgs[t].threads;
        best[t].wall_ms = wall;
      }
    }
  }
  for (std::size_t t = 0; t < 3; ++t) {
    best[t].speedup = best[0].wall_ms / best[t].wall_ms;
  }
  return {best[0], best[1], best[2]};
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_simcore.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      std::printf("simcore-perf\n");
      for (const char* s : {"event queue", "interpreter", "sparse memory",
                            "payload fill (64 MiB, checked vs next_byte())",
                            "fig1 latency sweep", "fig2 msgrate sweep",
                            "host poll (16 MiB host-controlled ping-pong)",
                            "payload path (16 MiB dev2dev-direct ping-pong, "
                            "event-count gated)",
                            "device poll (16 MiB dev2dev-pollOnGPU ping-pong, "
                            "event-count gated)",
                            "pdes scaling matrix",
                            "traced pdes scaling (byte-parity gated)"}) {
        std::printf("  %s\n", s);
      }
      return 0;
    } else {
      std::fprintf(stderr, "usage: %s [--list] [--json=FILE]\n", argv[0]);
      return 2;
    }
  }

  std::uint64_t events = 0, instrs = 0, bytes = 0;
  const double event_ns = bench_event_queue_ns(&events);
  const double instr_per_s = bench_interpreter_instr_per_s(&instrs);
  const double mem_mb_per_s = bench_memory_mb_per_s(&bytes);
  const PayloadFill fill = bench_payload_fill();
  const double fig1_ms = bench_fig1_wall_ms();
  const double fig2_ms = bench_fig2_wall_ms();
  const PollRun host_poll = bench_host_poll();
  const putget::PingPongResult& hp = host_poll.result;
  const PayloadPathRun path = bench_payload_path();
  const PollRun device_poll = bench_device_poll();
  const putget::PingPongResult& dp = device_poll.result;
  const std::vector<PdesCell> pdes = bench_pdes_matrix();
  const std::vector<TracedCell> traced = bench_pdes_traced();

  std::printf("simcore_perf - simulator host-performance baseline\n");
  std::printf("  event queue        %10.1f ns/event   (%llu events)\n",
              event_ns, static_cast<unsigned long long>(events));
  std::printf("  interpreter        %10.2f Minstr/s   (%llu instrs)\n",
              instr_per_s / 1e6, static_cast<unsigned long long>(instrs));
  std::printf("  sparse memory      %10.1f MB/s       (%llu bytes)\n",
              mem_mb_per_s, static_cast<unsigned long long>(bytes));
  std::printf("  payload fill       %10.3f ns/B       (%llu bytes, %s, "
              "matches next_byte())\n",
              fill.ns_per_byte, static_cast<unsigned long long>(fill.bytes),
              fill.isa);
  std::printf("  fig1 latency sweep %10.1f ms wall\n", fig1_ms);
  std::printf("  fig2 msgrate sweep %10.1f ms wall\n", fig2_ms);
  std::printf("  host poll 16 MiB   %10.1f ms wall    (%llu events, probes "
              "%llu executed / %llu skipped)\n",
              host_poll.wall_ms,
              static_cast<unsigned long long>(hp.events_scheduled),
              static_cast<unsigned long long>(hp.probes_executed),
              static_cast<unsigned long long>(hp.probes_skipped));
  std::printf("  payload path       %10.3f ns/B       (%llu bytes, %.1f ms "
              "wall, %llu events)\n",
              path.ns_per_byte, static_cast<unsigned long long>(path.bytes),
              path.wall_ms, static_cast<unsigned long long>(path.events));
  std::printf("  device poll 16 MiB %10.1f ms wall    (%llu events, warp "
              "probes %llu executed / %llu skipped)\n",
              device_poll.wall_ms,
              static_cast<unsigned long long>(dp.events_scheduled),
              static_cast<unsigned long long>(dp.probes_executed),
              static_cast<unsigned long long>(dp.probes_skipped));
  std::printf("  pdes ring scaling (cells=%u iters=%u, checksum-gated)\n",
              kPdesCells, kPdesIters);
  for (const PdesCell& c : pdes) {
    std::printf("    nodes=%d threads=%d %9.1f ms wall  %5.2fx\n", c.nodes,
                c.threads, c.wall_ms, c.speedup);
  }
  std::printf("  traced pdes ring (nodes=%d, all sinks, byte-parity gated)\n",
              kTracedNodes);
  for (const TracedCell& c : traced) {
    std::printf("    %-7s threads=%d %9.1f ms wall  %5.2fx\n", c.engine,
                c.threads, c.wall_ms, c.speedup);
  }

  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"bench\":\"simcore_perf\",\"metrics\":{"
                 "\"event_queue_ns_per_event\":%.3f,"
                 "\"interpreter_instr_per_s\":%.1f,"
                 "\"sparse_memory_mb_per_s\":%.1f,"
                 "\"fig1_extoll_latency_wall_ms\":%.3f,"
                 "\"fig2_extoll_msgrate_wall_ms\":%.3f},\n",
                 event_ns, instr_per_s, mem_mb_per_s, fig1_ms, fig2_ms);
    std::fprintf(f,
                 " \"payload_fill\":{\"bytes\":%llu,\"ns_per_byte\":%.3f,"
                 "\"isa\":\"%s\",\"fnv1a\":\"%016llx\","
                 "\"matches_next_byte\":true},\n",
                 static_cast<unsigned long long>(fill.bytes),
                 fill.ns_per_byte, fill.isa,
                 static_cast<unsigned long long>(fill.fnv1a));
    std::fprintf(f,
                 " \"host_poll\":{\"workload\":\"extoll/hostControlled "
                 "pingpong 16 MiB x1\",\"wall_ms\":%.3f,"
                 "\"events_scheduled\":%llu,\"probes_executed\":%llu,"
                 "\"probes_skipped\":%llu},\n",
                 host_poll.wall_ms,
                 static_cast<unsigned long long>(hp.events_scheduled),
                 static_cast<unsigned long long>(hp.probes_executed),
                 static_cast<unsigned long long>(hp.probes_skipped));
    std::fprintf(f,
                 " \"payload_path\":{\"workload\":\"extoll/dev2dev-direct "
                 "pingpong 16 MiB x1\",\"bytes\":%llu,\"ns_per_byte\":%.3f,"
                 "\"wall_ms\":%.3f,\"events_scheduled\":%llu},\n",
                 static_cast<unsigned long long>(path.bytes),
                 path.ns_per_byte, path.wall_ms,
                 static_cast<unsigned long long>(path.events));
    std::fprintf(f,
                 " \"device_poll\":{\"workload\":\"extoll/dev2dev-pollOnGPU "
                 "pingpong 16 MiB x1\",\"wall_ms\":%.3f,"
                 "\"events_scheduled\":%llu,\"probes_executed\":%llu,"
                 "\"probes_skipped\":%llu},\n",
                 device_poll.wall_ms,
                 static_cast<unsigned long long>(dp.events_scheduled),
                 static_cast<unsigned long long>(dp.probes_executed),
                 static_cast<unsigned long long>(dp.probes_skipped));
    std::fprintf(f,
                 " \"pdes\":{\"workload\":\"ext_multinode_ring/extoll\","
                 "\"cells_per_node\":%u,\"iterations\":%u,\"reps\":%d,"
                 "\"link_latency_us\":%.1f,\"matrix\":[\n",
                 kPdesCells, kPdesIters, kPdesReps,
                 to_us(kPdesLinkLatency));
    for (std::size_t i = 0; i < pdes.size(); ++i) {
      const PdesCell& c = pdes[i];
      std::fprintf(f,
                   "  {\"nodes\":%d,\"threads\":%d,\"wall_ms\":%.3f,"
                   "\"speedup\":%.3f,\"checksum\":%llu,\"events\":%llu}%s\n",
                   c.nodes, c.threads, c.wall_ms, c.speedup,
                   static_cast<unsigned long long>(c.checksum),
                   static_cast<unsigned long long>(c.events),
                   i + 1 < pdes.size() ? "," : "");
    }
    std::fprintf(f, " ]},\n");
    std::fprintf(f,
                 " \"traced_pdes\":{\"workload\":\"ext_multinode_ring/extoll"
                 "+trace+metrics+flows\",\"nodes\":%d,\"reps\":%d,"
                 "\"byte_identical\":true,\"matrix\":[\n",
                 kTracedNodes, kTracedReps);
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const TracedCell& c = traced[i];
      std::fprintf(f,
                   "  {\"engine\":\"%s\",\"threads\":%d,\"wall_ms\":%.3f,"
                   "\"speedup\":%.3f}%s\n",
                   c.engine, c.threads, c.wall_ms, c.speedup,
                   i + 1 < traced.size() ? "," : "");
    }
    std::fprintf(f, " ]}}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write '%s'\n", json_path.c_str());
    return 1;
  }
  return 0;
}
