#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <span>

#include "common/units.h"
#include "gpu/assembler.h"
#include "gpu/device.h"
#include "gpu/l2cache.h"
#include "mem/memory_domain.h"
#include "mem/sparse_memory.h"
#include "pcie/dma.h"
#include "pcie/fabric.h"
#include "putget/setup.h"
#include "sim/simulation.h"
#include "sys/cluster.h"
#include "sys/testbed.h"

namespace perfbench {
namespace {

using namespace pg;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 5;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median over kReps of `rep()`, which returns one measured figure.
double median_of_reps(const std::function<double()>& rep) {
  std::vector<double> v;
  for (int i = 0; i < kReps; ++i) v.push_back(rep());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double probe_fill(const std::vector<std::uint32_t>& sizes) {
  sys::Cluster cluster(sys::extoll_testbed());
  sys::Node& node = cluster.node(0);
  const std::uint32_t largest =
      sizes.empty() ? 4096 : *std::max_element(sizes.begin(), sizes.end());
  const mem::Addr buf = node.gpu_heap().alloc(largest, 64);
  // The same byte volume per size and repetition, so small sizes are
  // timed over many calls.
  return median_of_reps([&] {
    std::uint64_t bytes = 0;
    const auto t0 = Clock::now();
    for (std::uint32_t size : sizes) {
      const std::uint64_t calls =
          std::max<std::uint64_t>(1, (1 * MiB) / std::max(size, 1u));
      for (std::uint64_t c = 0; c < calls; ++c) {
        putget::fill_pattern(node, buf, size, 101 + c);
      }
      bytes += calls * size;
    }
    return seconds_since(t0) * 1e9 / static_cast<double>(bytes);
  });
}

double probe_l2_invalidate() {
  gpu::L2Cache l2(gpu::L2Config{});
  const std::uint32_t chunk = pcie::DmaConfig{}.write_chunk_size;
  const std::uint64_t region = 1 * MiB;  // 4x the cache: DMA landing zone
  constexpr std::uint64_t kCalls = 50'000;
  return median_of_reps([&] {
    for (std::uint64_t a = 0; a < region; a += l2.config().line_size) {
      l2.access(mem::AddressMap::kGpuDramBase + a, false);
    }
    const auto t0 = Clock::now();
    for (std::uint64_t c = 0; c < kCalls; ++c) {
      l2.invalidate_range(
          mem::AddressMap::kGpuDramBase + (c * chunk) % region, chunk);
    }
    return seconds_since(t0) * 1e9 / static_cast<double>(kCalls);
  });
}

/// A PCIe requester with no inbound traffic of its own.
class ProbeEndpoint final : public pcie::Endpoint {
 public:
  void inbound_write(mem::Addr, std::span<const std::uint8_t>) override {}
  SimTime inbound_read(SimTime arrival, mem::Addr,
                       std::span<std::uint8_t> out) override {
    std::fill(out.begin(), out.end(), 0);
    return arrival;
  }
};

double probe_pcie_read() {
  constexpr std::uint64_t kReads = 100'000;
  constexpr unsigned kInFlight = 4;  // the GPU's non-posted read credits
  return median_of_reps([&] {
    sim::Simulation sim;
    mem::MemoryDomain memory;
    pcie::Fabric fabric(sim, memory, pcie::FabricConfig{});
    ProbeEndpoint ep;
    const pcie::EndpointId id =
        fabric.attach("probe", &ep, pcie::LinkConfig{});
    std::uint64_t issued = 0;
    std::function<void()> issue = [&] {
      if (issued == kReads) return;
      const mem::Addr addr =
          mem::AddressMap::kHostDramBase + (issued % 4096) * 8;
      ++issued;
      fabric.read(id, addr, 8, [&](std::vector<std::uint8_t>) { issue(); });
    };
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < kInFlight; ++i) issue();
    sim.run();
    return seconds_since(t0) * 1e9 / static_cast<double>(kReads);
  });
}

/// A single thread spinning on a device-memory word: the L2 poll loop of
/// dev2dev-pollOnGPU, bounded by an iteration count.
double probe_gpu_poll_loop() {
  gpu::Assembler a("probe_poll");
  const gpu::Reg flag(4), limit(5), n(8), x(9), p(10);
  a.movi(n, 0);
  a.bind("poll");
  a.ld(x, flag);
  a.addi(n, n, 1);
  a.setp(gpu::Cmp::kLt, p, n, limit);
  a.bra_if(p, "poll");
  a.exit();
  auto prog = a.finish();
  if (!prog.is_ok()) {
    std::fprintf(stderr, "perfbench: poll-loop probe did not assemble\n");
    return 0;
  }
  constexpr std::uint64_t kIterations = 100'000;
  return median_of_reps([&] {
    sim::Simulation sim;
    mem::MemoryDomain memory;
    pcie::Fabric fabric(sim, memory, pcie::FabricConfig{});
    gpu::Gpu gpu(sim, fabric, memory, gpu::GpuConfig{}, "probe");
    bool done = false;
    const auto t0 = Clock::now();
    gpu.launch({.program = &prog.value(),
                .params = {mem::AddressMap::kGpuDramBase + 4096, kIterations}},
               [&done] { done = true; });
    sim.run_until_condition([&] { return done; });
    const double s = seconds_since(t0);
    return s * 1e9 /
           static_cast<double>(gpu.counters().instructions_executed);
  });
}

/// Self-rescheduling chains hold the heap at an experiment's in-flight
/// depth instead of measuring one fill-and-drain.
double probe_sim_events() {
  constexpr std::uint64_t kEvents = 300'000;
  constexpr unsigned kChains = 512;
  return median_of_reps([&] {
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
    const auto t0 = Clock::now();
    for (unsigned c = 0; c < kChains; ++c) {
      sim.schedule(static_cast<SimDuration>(c), Pump{&sim, &remaining});
    }
    sim.run();
    return seconds_since(t0) * 1e9 /
           static_cast<double>(sim.events_executed());
  });
}

double probe_sparse_memory() {
  constexpr std::uint64_t kBytes = 16 * MiB;
  std::uint64_t sink = 0;
  const double mbps = median_of_reps([&] {
    mem::SparseMemory m(kBytes);
    const auto t0 = Clock::now();
    for (std::uint64_t off = 0; off < kBytes; off += 8) {
      m.write_u64(off, off * 0x9e3779b97f4a7c15ull);
    }
    for (std::uint64_t off = 0; off < kBytes; off += 8) {
      sink ^= m.read_u64(off);
    }
    return 2.0 * kBytes / static_cast<double>(MiB) / seconds_since(t0);
  });
  // Keeps the loads observable without printing on every run.
  if (sink == 0x5eed) std::fprintf(stderr, "perfbench: sink\n");
  return mbps;
}

}  // namespace

ProbeResults run_probes(const std::vector<std::uint32_t>& payload_sizes) {
  ProbeResults r;
  r.fill_ns_per_byte = probe_fill(payload_sizes);
  r.l2_invalidate_ns = probe_l2_invalidate();
  r.pcie_ns_per_read = probe_pcie_read();
  r.gpu_ns_per_instr = probe_gpu_poll_loop();
  r.sim_ns_per_event = probe_sim_events();
  r.sparse_mb_per_s = probe_sparse_memory();
  return r;
}

}  // namespace perfbench
