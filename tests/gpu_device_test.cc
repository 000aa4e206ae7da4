// End-to-end tests of the GPU device model: program execution, memory
// spaces, L2 behaviour, counters, barriers, atomics, streams, and the
// PCIe endpoint personality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "gpu/assembler.h"
#include "gpu/device.h"
#include "gpu/l2cache.h"
#include "mem/memory_domain.h"
#include "obs/flow.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pcie/fabric.h"
#include "sim/coro.h"
#include "sim/simulation.h"

namespace pg::gpu {
namespace {

using mem::Addr;
using mem::AddressMap;

constexpr Addr kScratch = AddressMap::kGpuDramBase + 0x10000;
constexpr Addr kHostScratch = AddressMap::kHostDramBase + 0x10000;

struct GpuFixture {
  sim::Simulation sim;
  mem::MemoryDomain memory;
  pcie::Fabric fabric{sim, memory, pcie::FabricConfig{}};
  GpuConfig cfg;
  std::unique_ptr<Gpu> gpu;

  GpuFixture() { gpu = std::make_unique<Gpu>(sim, fabric, memory, cfg, "gpu0"); }

  /// Launches and runs to completion; returns simulated kernel duration
  /// (including launch overhead). Drains the event queue afterwards so
  /// posted (fire-and-forget) writes have landed before assertions.
  SimDuration run(const KernelLaunch& kl) {
    const SimTime start = sim.now();
    bool finished = false;
    SimTime end = start;
    gpu->launch(kl, [&] {
      finished = true;
      end = sim.now();
    });
    sim.set_event_limit(sim.events_executed() + 5'000'000);
    sim.run_until_condition([&] { return finished; });
    EXPECT_TRUE(finished) << "kernel did not finish";
    sim.run();
    return end - start;
  }

  Program make(Assembler& a) {
    auto p = a.finish();
    EXPECT_TRUE(p.is_ok()) << p.status().to_string();
    return std::move(p).value();
  }
};

TEST(GpuDevice, ComputesAndStoresToDeviceMemory) {
  GpuFixture f;
  Assembler a("store42");
  const Reg addr(4), v(8);
  a.movi(v, 40);
  a.addi(v, v, 2);
  a.st(addr, v, 0, 8);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .params = {kScratch}});
  EXPECT_EQ(f.memory.read_u64(kScratch), 42u);
}

TEST(GpuDevice, LoadsFromDeviceMemory) {
  GpuFixture f;
  f.memory.write_u64(kScratch, 123456789);
  Assembler a("load");
  const Reg src(4), dst(5), v(8);
  a.ld(v, src, 0, 8);
  a.addi(v, v, 1);
  a.st(dst, v, 0, 8);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .params = {kScratch, kScratch + 64}});
  EXPECT_EQ(f.memory.read_u64(kScratch + 64), 123456790u);
}

TEST(GpuDevice, NarrowWidthsZeroExtend) {
  GpuFixture f;
  f.memory.write_u64(kScratch, 0xFFFFFFFFFFFFFFFFull);
  Assembler a("narrow");
  const Reg src(4), dst(5), v(8);
  a.ld(v, src, 0, 1);
  a.st(dst, v, 0, 8);
  a.ld(v, src, 0, 4);
  a.st(dst, v, 8, 8);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .params = {kScratch, kScratch + 64}});
  EXPECT_EQ(f.memory.read_u64(kScratch + 64), 0xFFull);
  EXPECT_EQ(f.memory.read_u64(kScratch + 72), 0xFFFFFFFFull);
}

TEST(GpuDevice, PropertyAluMatchesHostArithmetic) {
  // Random straight-line ALU programs, checked against a host-side
  // evaluation of the same operations.
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    GpuFixture f;
    Assembler a("fuzz");
    std::array<std::uint64_t, 8> model{};  // host model of r8..r15
    for (unsigned i = 0; i < 8; ++i) {
      const std::uint64_t seed = rng.next_u64();
      model[i] = seed;
      a.movi(Reg(8 + i), static_cast<std::int64_t>(seed));
    }
    for (int op = 0; op < 30; ++op) {
      const unsigned d = static_cast<unsigned>(rng.next_below(8));
      const unsigned x = static_cast<unsigned>(rng.next_below(8));
      const unsigned y = static_cast<unsigned>(rng.next_below(8));
      switch (rng.next_below(8)) {
        case 0:
          a.add(Reg(8 + d), Reg(8 + x), Reg(8 + y));
          model[d] = model[x] + model[y];
          break;
        case 1:
          a.sub(Reg(8 + d), Reg(8 + x), Reg(8 + y));
          model[d] = model[x] - model[y];
          break;
        case 2:
          a.mul(Reg(8 + d), Reg(8 + x), Reg(8 + y));
          model[d] = model[x] * model[y];
          break;
        case 3:
          a.xor_(Reg(8 + d), Reg(8 + x), Reg(8 + y));
          model[d] = model[x] ^ model[y];
          break;
        case 4:
          a.and_(Reg(8 + d), Reg(8 + x), Reg(8 + y));
          model[d] = model[x] & model[y];
          break;
        case 5:
          a.or_(Reg(8 + d), Reg(8 + x), Reg(8 + y));
          model[d] = model[x] | model[y];
          break;
        case 6: {
          const int sh = static_cast<int>(rng.next_below(64));
          a.shli(Reg(8 + d), Reg(8 + x), sh);
          model[d] = model[x] << sh;
          break;
        }
        case 7:
          a.bswap64(Reg(8 + d), Reg(8 + x));
          model[d] = byteswap64(model[x]);
          break;
      }
    }
    for (unsigned i = 0; i < 8; ++i) {
      a.st(Reg(4), Reg(8 + i), static_cast<std::int64_t>(i * 8), 8);
    }
    a.exit();
    Program p = f.make(a);
    f.run({.program = &p, .params = {kScratch}});
    for (unsigned i = 0; i < 8; ++i) {
      ASSERT_EQ(f.memory.read_u64(kScratch + i * 8), model[i])
          << "trial " << trial << " reg " << i;
    }
  }
}

TEST(GpuDevice, TidAndCtaidDistinguishThreads) {
  GpuFixture f;
  // Each thread writes its global id to out[gid].
  Assembler a("ids");
  const Reg out(4), tid(8), ctaid(9), ntid(10), gid(11), addr(12);
  a.sreg(tid, Sreg::kTidX);
  a.sreg(ctaid, Sreg::kCtaidX);
  a.sreg(ntid, Sreg::kNtidX);
  a.mul(gid, ctaid, ntid);
  a.add(gid, gid, tid);
  a.muli(addr, gid, 8);
  a.add(addr, addr, out);
  a.st(addr, gid, 0, 8);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .blocks = 3, .threads_per_block = 4,
         .params = {kScratch}});
  for (std::uint64_t g = 0; g < 12; ++g) {
    EXPECT_EQ(f.memory.read_u64(kScratch + g * 8), g);
  }
}

TEST(GpuDevice, CountersTrackInstructionsPerLane) {
  GpuFixture f;
  Assembler a("count");
  a.movi(Reg(8), 1);
  a.movi(Reg(9), 2);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .blocks = 1, .threads_per_block = 8});
  // 3 instructions x 8 threads.
  EXPECT_EQ(f.gpu->counters().instructions_executed, 24u);
  EXPECT_TRUE(f.gpu->counters().consistent());
}

TEST(GpuDevice, L2HitsOnRepeatedPolling) {
  GpuFixture f;
  // Poll a devmem flag 100 times (it stays 0), then exit.
  Assembler a("poll");
  const Reg flag(4), n(8), v(9), pred(10);
  a.movi(n, 0);
  a.bind("loop");
  a.ld(v, flag, 0, 8);
  a.addi(n, n, 1);
  a.setpi(Cmp::kLt, pred, n, 100);
  a.bra_if(pred, "loop");
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .params = {kScratch}});
  const PerfCounters& c = f.gpu->counters();
  EXPECT_EQ(c.l2_read_requests, 100u);
  EXPECT_EQ(c.l2_read_misses, 1u);  // only the first probe misses
  EXPECT_EQ(c.l2_read_hits, 99u);
  EXPECT_EQ(c.globmem_read64, 100u);
  EXPECT_EQ(c.sysmem_read_transactions, 0u);
  EXPECT_TRUE(c.consistent());
}

TEST(GpuDevice, InboundDmaWriteInvalidatesPolledLine) {
  GpuFixture f;
  // Device polls devmem flag until it becomes 7.
  Assembler a("poll_flag");
  const Reg flag(4), v(8), pred(9);
  a.bind("loop");
  a.ld(v, flag, 0, 8);
  a.setpi(Cmp::kNe, pred, v, 7);
  a.bra_if(pred, "loop");
  a.exit();
  Program p = f.make(a);
  bool finished = false;
  f.gpu->launch({.program = &p, .params = {kScratch}},
                [&] { finished = true; });
  // Simulate a NIC completer landing data+flag some time later.
  f.sim.schedule(microseconds(30), [&] {
    std::uint8_t bytes[8] = {7, 0, 0, 0, 0, 0, 0, 0};
    f.gpu->inbound_write(kScratch, bytes);
  });
  f.sim.set_event_limit(5'000'000);
  f.sim.run_until_condition([&] { return finished; });
  ASSERT_TRUE(finished);
  EXPECT_GE(f.sim.now(), microseconds(30));
  EXPECT_GT(f.gpu->l2().invalidations(), 0u);
  // Polls mostly hit in L2. (The probe that observes the new value may
  // have been tagged before the invalidation landed — its data is
  // sampled at completion — so only the first probe is guaranteed to
  // miss.)
  EXPECT_GE(f.gpu->counters().l2_read_misses, 1u);
  EXPECT_GT(f.gpu->counters().l2_read_hits, 10u);
}

TEST(GpuDevice, SysmemAccessesCrossTheFabric) {
  GpuFixture f;
  f.memory.write_u64(kHostScratch, 0x5150);
  Assembler a("sysmem");
  const Reg src(4), dst(5), v(8);
  a.ld(v, src, 0, 8);         // sysmem read
  a.addi(v, v, 1);
  a.st(dst, v, 0, 8);         // sysmem write
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .params = {kHostScratch, kHostScratch + 64}});
  EXPECT_EQ(f.memory.read_u64(kHostScratch + 64), 0x5151u);
  EXPECT_EQ(f.gpu->counters().sysmem_read_transactions, 1u);
  EXPECT_EQ(f.gpu->counters().sysmem_write_transactions, 1u);
  EXPECT_EQ(f.gpu->counters().l2_read_requests, 0u);  // sysmem bypasses L2
}

TEST(GpuDevice, SysmemPollIsMuchSlowerThanDevmemPoll) {
  // The paper's central EXTOLL observation, reproduced at the probe
  // level: one system-memory probe costs a PCIe round trip, one
  // device-memory probe costs an L2 hit.
  auto probe_time = [](Addr flag_addr) {
    GpuFixture f;
    Assembler a("probes");
    const Reg flag(4), v(8), n(9), pred(10);
    a.movi(n, 0);
    a.bind("loop");
    a.ld(v, flag, 0, 8);
    a.addi(n, n, 1);
    a.setpi(Cmp::kLt, pred, n, 200);
    a.bra_if(pred, "loop");
    a.exit();
    auto p = a.finish();
    EXPECT_TRUE(p.is_ok());
    Program prog = std::move(p).value();
    return f.run({.program = &prog, .params = {flag_addr}});
  };
  const SimDuration devmem = probe_time(kScratch);
  const SimDuration sysmem = probe_time(kHostScratch);
  EXPECT_GT(sysmem, 3 * devmem);
}

TEST(GpuDevice, SharedMemoryIsPerBlock) {
  GpuFixture f;
  // Each block writes its id into shared[0], then copies shared[0] to
  // out[ctaid]. Blocks must not see each other's shared memory.
  Assembler a("shared");
  const Reg out(4), ctaid(8), sh(9), v(10), addr(11);
  a.sreg(ctaid, Sreg::kCtaidX);
  a.movi(sh, static_cast<std::int64_t>(AddressMap::kGpuSharedBase));
  a.st(sh, ctaid, 0, 8);
  a.ld(v, sh, 0, 8);
  a.muli(addr, ctaid, 8);
  a.add(addr, addr, out);
  a.st(addr, v, 0, 8);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .blocks = 4, .params = {kScratch}});
  for (std::uint64_t b = 0; b < 4; ++b) {
    EXPECT_EQ(f.memory.read_u64(kScratch + b * 8), b);
  }
  EXPECT_EQ(f.gpu->counters().shared_reads, 4u);
  EXPECT_EQ(f.gpu->counters().shared_writes, 4u);
}

TEST(GpuDevice, BarrierSynchronizesWarpsInABlock) {
  GpuFixture f;
  // 64 threads = 2 warps. Each thread writes tid to shared[tid], then
  // after a barrier reads shared[63 - tid] and stores it to out[tid].
  Assembler a("barrier");
  const Reg out(4), tid(8), sh(9), addr(10), v(11), rev(12);
  a.sreg(tid, Sreg::kTidX);
  a.movi(sh, static_cast<std::int64_t>(AddressMap::kGpuSharedBase));
  a.muli(addr, tid, 8);
  a.add(addr, addr, sh);
  a.st(addr, tid, 0, 8);
  a.bar_sync();
  a.movi(rev, 63);
  a.sub(rev, rev, tid);
  a.muli(addr, rev, 8);
  a.add(addr, addr, sh);
  a.ld(v, addr, 0, 8);
  a.muli(addr, tid, 8);
  a.add(addr, addr, out);
  a.st(addr, v, 0, 8);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .blocks = 1, .threads_per_block = 64,
         .params = {kScratch}});
  for (std::uint64_t t = 0; t < 64; ++t) {
    ASSERT_EQ(f.memory.read_u64(kScratch + t * 8), 63 - t) << "tid " << t;
  }
}

TEST(GpuDevice, AtomicAddAggregatesAcrossBlocks) {
  GpuFixture f;
  Assembler a("atomics");
  const Reg ctr(4), one(8), old(9);
  a.movi(one, 1);
  a.atom_add(old, ctr, one, 0);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .blocks = 16, .threads_per_block = 1,
         .params = {kScratch}});
  EXPECT_EQ(f.memory.read_u64(kScratch), 16u);
}

TEST(GpuDevice, AtomicExchangeReturnsOldValue) {
  GpuFixture f;
  f.memory.write_u64(kScratch, 99);
  Assembler a("exch");
  const Reg ctr(4), nv(8), old(9);
  a.movi(nv, 7);
  a.atom_exch(old, ctr, nv, 0);
  a.st(ctr, old, 8, 8);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .params = {kScratch}});
  EXPECT_EQ(f.memory.read_u64(kScratch), 7u);
  EXPECT_EQ(f.memory.read_u64(kScratch + 8), 99u);
}

TEST(GpuDevice, DivergentBranchCountersAndSemantics) {
  GpuFixture f;
  // Odd threads add 100, even threads add 200; all store to out[tid].
  Assembler a("diverge");
  const Reg out(4), tid(8), parity(9), v(10), addr(11);
  a.sreg(tid, Sreg::kTidX);
  a.andi(parity, tid, 1);
  a.ssy("join");
  a.bra_if(parity, "odd");
  a.movi(v, 200);
  a.bra("join");
  a.bind("odd");
  a.movi(v, 100);
  a.bind("join");
  a.add(v, v, tid);
  a.muli(addr, tid, 8);
  a.add(addr, addr, out);
  a.st(addr, v, 0, 8);
  a.exit();
  Program p = f.make(a);
  f.run({.program = &p, .blocks = 1, .threads_per_block = 8,
         .params = {kScratch}});
  for (std::uint64_t t = 0; t < 8; ++t) {
    const std::uint64_t expect = (t & 1 ? 100 : 200) + t;
    ASSERT_EQ(f.memory.read_u64(kScratch + t * 8), expect) << t;
  }
  EXPECT_GE(f.gpu->counters().divergent_branches, 1u);
}

TEST(GpuDevice, KernelsInOneStreamSerialize) {
  GpuFixture f;
  // Kernel increments out[0] by reading+adding (racy across concurrent
  // kernels, safe when serialized).
  Assembler a("inc");
  const Reg out(4), v(8);
  a.ld(v, out, 0, 8);
  a.addi(v, v, 1);
  a.st(out, v, 0, 8);
  a.exit();
  Program p = f.make(a);
  int done_count = 0;
  for (int i = 0; i < 5; ++i) {
    f.gpu->launch_stream(3, {.program = &p, .params = {kScratch}},
                         [&] { ++done_count; });
  }
  f.sim.run_until_condition([&] { return done_count == 5; });
  EXPECT_EQ(done_count, 5);
  EXPECT_EQ(f.memory.read_u64(kScratch), 5u);
}

TEST(GpuDevice, DistinctStreamsOverlap) {
  GpuFixture f;
  // A long-polling kernel in stream 1; a short kernel in stream 2 must
  // complete while stream 1 is still running.
  Assembler la("long_poll");
  {
    const Reg flag(4), v(8), pred(9);
    la.bind("loop");
    la.ld(v, flag, 0, 8);
    la.setpi(Cmp::kNe, pred, v, 1);
    la.bra_if(pred, "loop");
    la.exit();
  }
  auto long_p = la.finish();
  ASSERT_TRUE(long_p.is_ok());
  Assembler sa("short_store");
  {
    const Reg out(4), v(8);
    sa.movi(v, 11);
    sa.st(out, v, 0, 8);
    sa.exit();
  }
  auto short_p = sa.finish();
  ASSERT_TRUE(short_p.is_ok());

  bool long_done = false, short_done = false;
  SimTime short_time = 0;
  f.gpu->launch_stream(1, {.program = &long_p.value(), .params = {kScratch}},
                       [&] { long_done = true; });
  f.gpu->launch_stream(2,
                       {.program = &short_p.value(), .params = {kScratch + 64}},
                       [&] {
                         short_done = true;
                         short_time = f.sim.now();
                       });
  // Release the long kernel at 200us.
  f.sim.schedule(microseconds(200), [&] {
    std::uint8_t bytes[8] = {1, 0, 0, 0, 0, 0, 0, 0};
    f.gpu->inbound_write(kScratch, bytes);
  });
  f.sim.set_event_limit(20'000'000);
  f.sim.run_until_condition([&] { return long_done && short_done; });
  ASSERT_TRUE(long_done && short_done);
  EXPECT_LT(short_time, microseconds(100));  // overlapped, not serialized
}

TEST(GpuDevice, PeerReadServesCurrentData) {
  GpuFixture f;
  f.memory.write_u64(kScratch, 0xABCD);
  std::uint8_t out[8] = {};
  const SimTime ready = f.gpu->inbound_read(1000, kScratch, out);
  std::uint64_t v = 0;
  std::memcpy(&v, out, 8);
  EXPECT_EQ(v, 0xABCDu);
  EXPECT_GT(ready, 1000);
}

TEST(GpuDevice, LaunchOverheadDelaysExecution) {
  GpuFixture f;
  Assembler a("noop");
  a.exit();
  Program p = f.make(a);
  const SimDuration took = f.run({.program = &p});
  EXPECT_GE(took, f.cfg.launch_overhead);
}

// Tag/LRU model with the plain full-scan invalidation: L2Cache's
// set-skipping probe must match it counter for counter.
class ReferenceL2 {
 public:
  explicit ReferenceL2(L2Config cfg)
      : cfg_(cfg), lines_(std::size_t{cfg.num_sets} * cfg.ways) {}

  bool access(Addr addr) {
    const std::uint64_t line = addr / cfg_.line_size;
    Line* slot = &lines_[(line % cfg_.num_sets) * cfg_.ways];
    Line* victim = slot;
    ++clock_;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
      Line& c = slot[w];
      if (c.valid && c.tag == line) {
        c.stamp = clock_;
        ++hits;
        return true;
      }
      if (!c.valid) {
        victim = &c;
      } else if (victim->valid && c.stamp < victim->stamp) {
        victim = &c;
      }
    }
    ++misses;
    *victim = Line{line, true, clock_};
    return false;
  }

  void invalidate_range(Addr addr, std::uint64_t len) {
    if (len == 0) return;
    for (std::uint64_t line = addr / cfg_.line_size;
         line <= (addr + len - 1) / cfg_.line_size; ++line) {
      Line* slot = &lines_[(line % cfg_.num_sets) * cfg_.ways];
      for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (slot[w].valid && slot[w].tag == line) {
          slot[w].valid = false;
          ++invalidations;
        }
      }
    }
  }

  std::uint64_t hits = 0, misses = 0, invalidations = 0;

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    std::uint64_t stamp = 0;
  };
  L2Config cfg_;
  std::vector<Line> lines_;
  std::uint64_t clock_ = 0;
};

TEST(L2Cache, PropertyInvalidationMatchesFullScanModel) {
  // A small cache (8 sets x 4 ways x 128 B = 4 KiB) over a 64 KiB
  // window, so ranges below, at and far above the cache size all occur.
  const L2Config cfg{.line_size = 128, .num_sets = 8, .ways = 4};
  L2Cache l2(cfg);
  ReferenceL2 ref(cfg);
  Rng rng(2024);
  const Addr base = AddressMap::kGpuDramBase;
  for (int i = 0; i < 20000; ++i) {
    const Addr addr = base + rng.next_below(64 * 1024);
    if (rng.next_below(4) != 0) {
      ASSERT_EQ(l2.access(addr, false), ref.access(addr)) << "op " << i;
    } else {
      const std::uint64_t len = rng.next_below(4) == 0
                                    ? rng.next_below(96 * 1024)
                                    : rng.next_below(2048);
      l2.invalidate_range(addr, len);
      ref.invalidate_range(addr, len);
    }
    ASSERT_EQ(l2.invalidations(), ref.invalidations) << "op " << i;
  }
  EXPECT_EQ(l2.hits(), ref.hits);
  EXPECT_EQ(l2.misses(), ref.misses);
  EXPECT_GT(ref.invalidations, 1000u);
  // invalidate_all leaves nothing for a later range to find.
  l2.invalidate_all();
  const std::uint64_t after_all = l2.invalidations();
  l2.invalidate_range(base, 64 * 1024);
  EXPECT_EQ(l2.invalidations(), after_all);
  EXPECT_FALSE(l2.access(base, false));
}

// --- Device poll-loop fast-forward equivalence ---------------------------

// Pure device poll loops re-probe through sim::Simulation::schedule_reprobe,
// which charges provably failing probes only inside run(), run_until() and
// run_until_condition*(); step_one() never skips. Every scenario therefore
// runs twice under the same driver script, armed (run_until/run) and
// stepped (step_one), and every observable must agree.

constexpr Addr kFlags = AddressMap::kGpuDramBase + 0x20000;  // 512 B a block
constexpr Addr kRows = AddressMap::kGpuDramBase + 0x40000;   // per thread
constexpr Addr kHostFlag = AddressMap::kHostDramBase + 0x20000;
constexpr unsigned kMaxRounds = 3;
constexpr unsigned kRowWords = kMaxRounds + 1;

struct PollKernelPlan {
  std::uint32_t blocks = 1;
  std::uint32_t threads = 1;
  unsigned width = 8;
  unsigned stride = 0;  // bytes between the lanes' polled words
  unsigned rounds = 1;
  bool store_in_loop = false;  // a store between ld and setp: no pure loop
};

Addr flag_of(std::uint32_t block) { return kFlags + block * 512ull; }

/// Each thread waits `rounds` times for its block's flag to reach the
/// round number (ld/setp/bra), stamps the clock into its result row after
/// each wait, and finally stores the last value it loaded.
Program poll_kernel(const PollKernelPlan& k) {
  Assembler a("device_poll");
  const Reg flags(4), rows(5), tid(8), addr(9), row(10), round(11),
      expected(12), v(13), pred(14), t(15);
  a.sreg(tid, Sreg::kTidX);
  a.sreg(addr, Sreg::kCtaidX);
  a.muli(addr, addr, 512);
  a.add(addr, addr, flags);
  a.muli(t, tid, k.stride);
  a.add(addr, addr, t);
  a.sreg(row, Sreg::kCtaidX);
  a.muli(row, row, k.threads);
  a.add(row, row, tid);
  a.muli(row, row, 8 * kRowWords);
  a.add(row, row, rows);
  a.movi(round, 0);
  a.bind("round");
  a.addi(expected, round, 1);
  a.bind("poll");
  a.ld(v, addr, 0, k.width);
  if (k.store_in_loop) a.st(row, v, 8 * kMaxRounds, 8);
  a.setp(Cmp::kLtU, pred, v, expected);
  a.bra_if(pred, "poll");
  a.sreg(t, Sreg::kClock);
  a.st(row, t, 0, 8);
  a.addi(row, row, 8);
  a.addi(round, round, 1);
  a.setpi(Cmp::kLtU, pred, round, k.rounds);
  a.bra_if(pred, "round");
  a.st(row, v, 0, 8);
  a.exit();
  auto p = a.finish();
  EXPECT_TRUE(p.is_ok()) << p.status().to_string();
  return std::move(p).value();
}

/// The bytes a DMA writer lands to set every polled word of `block` to
/// `value` at once (lanes of one warp never see different values, so the
/// poll branch never diverges).
struct DmaWrite {
  SimTime when = 0;  // ignored for driver-code writes
  int gpu = 0;
  Addr addr = 0;
  std::vector<std::uint8_t> bytes;
};

DmaWrite flag_write(const PollKernelPlan& k, int gpu, std::uint32_t block,
                    std::uint64_t value, SimTime when = 0) {
  DmaWrite w{when, gpu, flag_of(block), {}};
  const unsigned words = k.stride == 0 ? 1 : k.threads;
  w.bytes.assign(static_cast<std::size_t>(k.stride) * (words - 1) + k.width,
                 0);
  for (unsigned i = 0; i < words; ++i) {
    std::memcpy(w.bytes.data() + static_cast<std::size_t>(i) * k.stride,
                &value, k.width);
  }
  return w;
}

struct DriverStep {
  SimTime deadline;
  std::optional<DmaWrite> write;  // landed by driver code after the run
  bool set_host_flag = false;     // driver code sets the host flag
};

struct DevicePollScenario {
  std::vector<GpuConfig> gpus;
  std::vector<PollKernelPlan> kernels;  // one per GPU
  std::vector<DmaWrite> writes;         // plain events
  bool host_poll = true;                // a host loop on the host flag
  SimTime host_flag_at = -1;            // plain event; -1: driver sets it
  bool host_polls_gpu0 = false;         // a second host loop on GPU 0
  std::vector<DriverStep> steps;
};

struct DevicePollObserved {
  // Per driver return: now, total_scheduled, events_executed, then each
  // GPU's counters, L2 totals and the polled lines' LRU stamps.
  std::vector<std::vector<std::uint64_t>> returns;
  std::vector<SimTime> kernel_done;
  std::vector<SimTime> host_woke;
  std::vector<std::uint64_t> words;  // every flag and result row
  std::uint64_t probes_executed = 0;  // host-only, not compared
  std::uint64_t probes_skipped = 0;   // host and device loops
  std::uint64_t warp_probes_skipped = 0;  // device loops alone
};

struct PollNode {
  mem::MemoryDomain memory;
  pcie::Fabric fabric;
  std::unique_ptr<Gpu> gpu;
  PollNode(sim::Simulation& sim, const GpuConfig& cfg, const char* name)
      : fabric(sim, memory, pcie::FabricConfig{}),
        gpu(std::make_unique<Gpu>(sim, fabric, memory, cfg, name)) {}
};

sim::SimTask host_poller(sim::Simulation& sim, std::function<bool()> pred,
                         SimTime* woke) {
  sim::PollUntil poll{sim, std::move(pred), nanoseconds(60), nanoseconds(20)};
  co_await poll;
  *woke = sim.now();
}

void fingerprint(Gpu& g, const PollKernelPlan& k,
                 std::vector<std::uint64_t>& out) {
  const PerfCounters& c = g.counters();
  for (std::uint64_t v :
       {c.instructions_executed, c.memory_accesses,
        c.sysmem_read_transactions, c.sysmem_write_transactions,
        c.globmem_read64, c.globmem_write64, c.globmem_read_other,
        c.globmem_write_other, c.l2_read_requests, c.l2_read_hits,
        c.l2_read_misses, c.l2_write_requests, c.shared_reads,
        c.shared_writes, c.branches, c.divergent_branches, c.warps_launched,
        c.blocks_launched, c.kernels_launched}) {
    out.push_back(v);
  }
  L2Cache& l2 = g.l2();
  out.push_back(l2.hits());
  out.push_back(l2.misses());
  out.push_back(l2.invalidations());
  out.push_back(l2.clock());
  for (std::uint32_t b = 0; b < k.blocks; ++b) {
    for (Addr line = 0; line < 512; line += 128) {
      out.push_back(l2.lru_stamp(flag_of(b) + line));
    }
  }
}

DevicePollObserved run_device_poll(const DevicePollScenario& sc,
                                   bool stepped) {
  sim::Simulation sim;
  std::vector<std::unique_ptr<PollNode>> nodes;
  std::vector<Program> programs;
  for (std::size_t i = 0; i < sc.gpus.size(); ++i) {
    nodes.push_back(std::make_unique<PollNode>(sim, sc.gpus[i],
                                               i == 0 ? "gpu0" : "gpu1"));
    programs.push_back(poll_kernel(sc.kernels[i]));
  }
  DevicePollObserved obs;
  obs.kernel_done.assign(nodes.size(), -1);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const PollKernelPlan& k = sc.kernels[i];
    nodes[i]->gpu->launch({.program = &programs[i],
                           .blocks = k.blocks,
                           .threads_per_block = k.threads,
                           .params = {kFlags, kRows}},
                          [&obs, &sim, i] { obs.kernel_done[i] = sim.now(); });
  }
  auto land = [&nodes](const DmaWrite& w) {
    nodes[static_cast<std::size_t>(w.gpu)]->gpu->inbound_write(w.addr,
                                                               w.bytes);
  };
  for (const DmaWrite& w : sc.writes) {
    sim.schedule_at(w.when, [&land, &w] { land(w); });
  }
  mem::MemoryDomain& host = nodes[0]->memory;
  if (sc.host_flag_at >= 0) {
    sim.schedule_at(sc.host_flag_at, [&host] { host.write_u64(kHostFlag, 1); });
  }
  obs.host_woke.assign(2, -1);
  std::vector<sim::SimTask> tasks;
  if (sc.host_poll) {
    tasks.push_back(host_poller(
        sim, [&host] { return host.read_u64(kHostFlag) != 0; },
        &obs.host_woke[0]));
  }
  if (sc.host_polls_gpu0) {
    const std::uint64_t last = sc.kernels[0].rounds;
    tasks.push_back(host_poller(
        sim, [&host, last] { return host.read_u64(flag_of(0)) >= last; },
        &obs.host_woke[1]));
  }

  auto note_return = [&] {
    std::vector<std::uint64_t> r{static_cast<std::uint64_t>(sim.now()),
                                 sim.total_scheduled(),
                                 sim.events_executed()};
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      fingerprint(*nodes[i]->gpu, sc.kernels[i], r);
    }
    obs.returns.push_back(std::move(r));
  };
  for (const DriverStep& st : sc.steps) {
    if (stepped) {
      while (!sim.idle() && sim.next_time() <= st.deadline) sim.step_one();
      sim.fence_now(st.deadline);
    } else {
      sim.run_until(st.deadline);
    }
    note_return();
    if (st.write) land(*st.write);
    if (st.set_host_flag) host.write_u64(kHostFlag, 1);
  }
  if (stepped) {
    while (!sim.idle()) sim.step_one();
  } else {
    sim.run();
  }
  note_return();

  for (const sim::SimTask& t : tasks) EXPECT_TRUE(t.done());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const PollKernelPlan& k = sc.kernels[i];
    const mem::MemoryDomain& m = nodes[i]->memory;
    for (std::uint32_t b = 0; b < k.blocks; ++b) {
      obs.words.push_back(m.read_u64(flag_of(b)));
    }
    for (std::uint32_t t = 0; t < k.blocks * k.threads; ++t) {
      for (unsigned w = 0; w < kRowWords; ++w) {
        obs.words.push_back(m.read_u64(kRows + (t * kRowWords + w) * 8));
      }
    }
  }
  obs.probes_executed = sim.probes_executed();
  obs.probes_skipped = sim.probes_skipped();
  for (const auto& n : nodes) obs.warp_probes_skipped += n->gpu->probes_skipped();
  return obs;
}

void expect_same(const DevicePollObserved& got,
                 const DevicePollObserved& ref) {
  ASSERT_EQ(got.returns, ref.returns);
  ASSERT_EQ(got.kernel_done, ref.kernel_done);
  ASSERT_EQ(got.host_woke, ref.host_woke);
  ASSERT_EQ(got.words, ref.words);
}

DevicePollScenario draw_device_poll(std::uint64_t seed) {
  Rng rng(seed);
  auto pick = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return static_cast<SimTime>(lo + rng.next_below(hi - lo + 1));
  };
  DevicePollScenario sc;
  for (int g = 0; g < 2; ++g) {
    GpuConfig cfg;
    // A one-set L2 makes blocks polling different lines evict each other.
    if (rng.next_below(3) == 0) cfg.l2 = L2Config{128, 1, 1};
    sc.gpus.push_back(cfg);
    PollKernelPlan k;
    k.blocks = static_cast<std::uint32_t>(pick(1, 2));
    const std::uint32_t threads[] = {1, 1, 3, 4, 32, 40};
    k.threads = threads[rng.next_below(6)];
    k.width = rng.next_below(2) == 0 ? 8 : 4;
    k.stride = rng.next_below(2) == 0 ? 0 : k.width;
    k.rounds = static_cast<unsigned>(pick(1, kMaxRounds));
    sc.kernels.push_back(k);
    // Each block's flag climbs to `rounds` or past it in random steps,
    // at random times; some writes land from driver code below instead.
    const Addr words_end = k.stride == 0 ? 8 : k.threads * k.stride;
    for (std::uint32_t b = 0; b < k.blocks; ++b) {
      std::vector<std::uint64_t> values{static_cast<std::uint64_t>(pick(1, 2))};
      while (values.back() < k.rounds) values.push_back(values.back() + pick(1, 2));
      std::vector<SimTime> times;
      for (std::size_t i = 0; i < values.size(); ++i) {
        times.push_back(nanoseconds(pick(1000, 40000)));
      }
      std::sort(times.begin(), times.end());
      for (std::size_t i = 0; i < values.size(); ++i) {
        sc.writes.push_back(flag_write(k, g, b, values[i], times[i]));
      }
      // DMA noise past the polled words, on the last polled line: it
      // invalidates that line without changing what the lanes read.
      for (int n = static_cast<int>(pick(0, 2)); n > 0; --n) {
        sc.writes.push_back(DmaWrite{nanoseconds(pick(1000, 40000)), g,
                                     flag_of(b) + words_end + 8 * pick(0, 3),
                                     std::vector<std::uint8_t>(8, 0xAB)});
      }
    }
  }
  // A noise write at the instant of another write.
  DmaWrite twin = sc.writes.back();
  twin.when = sc.writes[rng.next_below(sc.writes.size())].when;
  sc.writes.push_back(twin);
  sc.host_polls_gpu0 = rng.next_below(2) == 0;
  const bool driver_sets_host = rng.next_below(3) == 0;
  if (!driver_sets_host) sc.host_flag_at = nanoseconds(pick(500, 45000));
  SimTime deadline = 0;
  for (int n = static_cast<int>(pick(driver_sets_host ? 1 : 0, 4)); n > 0;
       --n) {
    deadline += nanoseconds(pick(100, 15000));
    DriverStep st{deadline, std::nullopt, false};
    if (rng.next_below(3) == 0) {
      const int g = static_cast<int>(rng.next_below(2));
      const PollKernelPlan& k = sc.kernels[static_cast<std::size_t>(g)];
      st.write = flag_write(k, g, 0, k.rounds);
    }
    sc.steps.push_back(std::move(st));
  }
  if (driver_sets_host) sc.steps.back().set_host_flag = true;
  return sc;
}

TEST(DevicePollFastForward, PropertyMatchesSteppedLoop) {
  std::uint64_t skipped = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const DevicePollScenario sc = draw_device_poll(seed);
    const DevicePollObserved ref = run_device_poll(sc, /*stepped=*/true);
    const DevicePollObserved got = run_device_poll(sc, /*stepped=*/false);
    ASSERT_EQ(ref.probes_skipped, 0u);
    expect_same(got, ref);
    if (HasFatalFailure()) return;
    skipped += got.warp_probes_skipped;
  }
  EXPECT_GT(skipped, 0u);  // the property is not vacuous
}

/// One GPU, one kernel, its flag landing by DMA at 30 us.
DevicePollScenario single_poll(const PollKernelPlan& k,
                               GpuConfig cfg = GpuConfig{}) {
  DevicePollScenario sc;
  sc.gpus = {cfg};
  sc.kernels = {k};
  for (std::uint32_t b = 0; b < k.blocks; ++b) {
    sc.writes.push_back(flag_write(k, 0, b, k.rounds, microseconds(30)));
  }
  sc.host_flag_at = microseconds(20);
  return sc;
}

TEST(DevicePollFastForward, SettledProbesAreChargedExactly) {
  // One warp spinning 24 us on an L2 hit: nearly all of its probes are
  // charged, and every counter, the L2 clock and the line's stamp read
  // what stepping gives.
  const DevicePollScenario sc = single_poll(PollKernelPlan{});
  const DevicePollObserved ref = run_device_poll(sc, true);
  const DevicePollObserved got = run_device_poll(sc, false);
  expect_same(got, ref);
  EXPECT_GT(got.warp_probes_skipped, 100u);
  EXPECT_LT(got.probes_executed, 20u);
  // Four lanes on one 32-byte sector still make one L2 request a probe.
  const DevicePollScenario lanes =
      single_poll(PollKernelPlan{.threads = 4, .width = 8, .stride = 8});
  const DevicePollObserved lanes_got = run_device_poll(lanes, false);
  expect_same(lanes_got, run_device_poll(lanes, true));
  EXPECT_GT(lanes_got.warp_probes_skipped, 100u);
}

TEST(DevicePollFastForward, MetricsAloneChargeL2LoadsInBulk) {
  const DevicePollScenario sc = single_poll(PollKernelPlan{});
  std::uint64_t loads[2];
  for (bool stepped : {true, false}) {
    obs::MetricsRegistry reg;
    obs::attach_metrics(&reg);
    const DevicePollObserved o = run_device_poll(sc, stepped);
    obs::attach_metrics(nullptr);
    loads[stepped] = reg.counter("gpu.l2_loads").value();
    if (!stepped) {
      EXPECT_GT(o.warp_probes_skipped, 100u);
    }
  }
  EXPECT_EQ(loads[0], loads[1]);
  EXPECT_GT(loads[0], 100u);
}

TEST(DevicePollFastForward, NoSkipForMissingLoad) {
  // A DMA writer lands a non-matching value on the polled word every
  // 100 ns, less than one iteration: every re-issue misses in L2, so no
  // iteration is a pure probe.
  DevicePollScenario sc = single_poll(PollKernelPlan{});
  sc.host_poll = false;
  for (SimTime t = microseconds(5); t < microseconds(30);
       t += nanoseconds(100)) {
    sc.writes.push_back(flag_write(sc.kernels[0], 0, 0, 0, t));
  }
  const DevicePollObserved ref = run_device_poll(sc, true);
  const DevicePollObserved got = run_device_poll(sc, false);
  expect_same(got, ref);
  EXPECT_EQ(got.probes_executed + got.probes_skipped, 0u);
  const std::vector<std::uint64_t>& last = got.returns.back();
  const std::size_t l2_hits = 3 + 9;  // after now/sched/exec: l2_read_hits
  EXPECT_EQ(last[l2_hits], 0u);
}

TEST(DevicePollFastForward, NoSkipForMultiSectorLoad) {
  // Two lanes polling words 64 B apart: two sectors per iteration.
  const DevicePollScenario sc =
      single_poll(PollKernelPlan{.threads = 2, .width = 8, .stride = 64});
  const DevicePollObserved ref = run_device_poll(sc, true);
  const DevicePollObserved got = run_device_poll(sc, false);
  expect_same(got, ref);
  EXPECT_EQ(got.warp_probes_skipped, 0u);
}

TEST(DevicePollFastForward, NoSkipForLoopWithStore) {
  const DevicePollScenario sc =
      single_poll(PollKernelPlan{.store_in_loop = true});
  const DevicePollObserved ref = run_device_poll(sc, true);
  const DevicePollObserved got = run_device_poll(sc, false);
  expect_same(got, ref);
  EXPECT_EQ(got.warp_probes_skipped, 0u);
}

TEST(DevicePollFastForward, NoSkipWhenTracedOrFlowed) {
  // A trace records every L2 read and a FlowTable may end a lifecycle at
  // any probe: with either attached, every device probe runs. (The host
  // loop beside it still skips between the GPU's plain events.)
  const DevicePollScenario sc = single_poll(PollKernelPlan{});
  for (int sink = 0; sink < 2; ++sink) {
    SCOPED_TRACE(sink == 0 ? "trace" : "flows");
    std::size_t trace_events[2] = {0, 0};
    std::uint64_t executed[2] = {0, 0};
    for (bool stepped : {true, false}) {
      obs::TraceRecorder rec;
      obs::FlowTable flows;
      if (sink == 0) obs::attach_recorder(&rec);
      if (sink == 1) obs::attach_flows(&flows);
      const DevicePollObserved o = run_device_poll(sc, stepped);
      obs::attach_recorder(nullptr);
      obs::attach_flows(nullptr);
      trace_events[stepped] = rec.event_count();
      executed[stepped] = o.returns.back()[2];
      EXPECT_EQ(o.warp_probes_skipped, 0u);
    }
    EXPECT_EQ(trace_events[0], trace_events[1]);
    EXPECT_EQ(executed[0], executed[1]);
  }
}

}  // namespace
}  // namespace pg::gpu
