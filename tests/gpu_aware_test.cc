// Tests for the Sec.-VI extension prototypes: warp-collaborative posting
// and GPU-resident EXTOLL notification queues; also the payload fill and
// verify helpers (putget/setup.h) whose results these tests rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "putget/gpu_aware.h"
#include "putget/ib_experiments.h"
#include "putget/setup.h"
#include "sys/testbed.h"

namespace pg::putget {
namespace {

TEST(GpuAware, WarpPostProducesIdenticalWqe) {
  // The 8-lane collaborative post must publish byte-identical WQEs to the
  // single-thread path.
  sys::Cluster cluster(sys::ib_testbed());
  sys::Node& n0 = cluster.node(0);
  auto pair = IbPair::create(cluster, QueueLocation::kGpuMemory, 256, 5);
  ASSERT_TRUE(pair.is_ok());
  const mem::Addr table = make_qp_table(n0, pair->ep0.qp().qpn, 8);
  const mem::Addr qpc = make_qp_device_context(n0, pair->ep0, table, 8);

  IbPostSendTemplate tmpl;
  tmpl.opcode = ib::WqeOpcode::kRdmaWrite;
  tmpl.signaled = true;
  tmpl.byte_len = 256;
  tmpl.lkey = pair->mr_send0.lkey;
  tmpl.rkey = pair->mr_recv1.rkey;
  tmpl.imm = 0x42;

  gpu::Assembler a("warp_post_once");
  const gpu::Reg qpc_r(9), laddr(10), raddr(11), wr_id(12);
  const gpu::Reg s0(23), s1(24), s2(25), s3(26), s4(27), s5(28);
  a.movi(qpc_r, static_cast<std::int64_t>(qpc));
  a.movi(laddr, static_cast<std::int64_t>(pair->send0));
  a.movi(raddr, static_cast<std::int64_t>(pair->recv1));
  a.movi(wr_id, 31337);
  emit_ib_post_send_warp(a, {qpc_r, laddr, raddr, wr_id}, tmpl, s0, s1, s2,
                         s3, s4, s5);
  a.exit();
  auto prog = a.finish();
  ASSERT_TRUE(prog.is_ok()) << prog.status().to_string();

  bool done = false;
  n0.gpu().launch({.program = &prog.value(), .threads_per_block = 8,
                   .params = {}},
                  [&] { done = true; });
  ASSERT_TRUE(cluster.run_until([&] { return done; }));
  cluster.sim().run_until(cluster.sim().now() + microseconds(100));

  std::uint8_t bytes[ib::kSendWqeBytes];
  n0.memory().read(pair->ep0.qp().sq_buffer, bytes);
  ASSERT_TRUE(ib::send_wqe_stamp_valid(bytes));
  const ib::SendWqe wqe = ib::decode_send_wqe(bytes);
  EXPECT_EQ(wqe.opcode, ib::WqeOpcode::kRdmaWrite);
  EXPECT_TRUE(wqe.signaled);
  EXPECT_EQ(wqe.byte_len, 256u);
  EXPECT_EQ(wqe.laddr, pair->send0);
  EXPECT_EQ(wqe.raddr, pair->recv1);
  EXPECT_EQ(wqe.lkey, pair->mr_send0.lkey);
  EXPECT_EQ(wqe.rkey, pair->mr_recv1.rkey);
  EXPECT_EQ(wqe.imm, 0x42u);
  EXPECT_EQ(wqe.wr_id, 31337u);
  // The doorbell fired exactly once (lane 0): the HCA executed the write.
  EXPECT_EQ(n0.hca().messages_sent(), 1u);
  // And the payload landed at the peer.
  EXPECT_TRUE(ranges_equal(n0, pair->send0, cluster.node(1), pair->recv1,
                           256));
}

// --- Page-streamed payload set-up and verification -------------------------

constexpr std::uint64_t kPage = mem::SparseMemory::kPageSize;
// Far above anything the testbed allocates at start-up.
constexpr std::uint64_t kUntouched = 1ull << 30;

TEST(PayloadFill, MatchesByteAtATimeReference) {
  sys::Cluster cluster(sys::ib_testbed());
  sys::Node& n0 = cluster.node(0);
  // Starts mid-page and spans four pages, in both DRAM spaces.
  const std::uint64_t len = 3 * kPage + 123;
  for (const mem::Addr base :
       {mem::AddressMap::kGpuDramBase, mem::AddressMap::kHostDramBase}) {
    const mem::Addr addr = base + kUntouched + 1000;
    fill_pattern(n0, addr, len, 77);
    std::vector<std::uint8_t> want(len);
    Rng rng(77);
    for (auto& byte : want) byte = rng.next_byte();
    std::vector<std::uint8_t> got(len + 2);
    n0.memory().read(addr - 1, got);
    EXPECT_EQ(got.front(), 0u);  // nothing written before the range
    EXPECT_EQ(got.back(), 0u);   // nor after it
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin() + 1));
  }
}

TEST(PayloadFill, LanePathMatchesReference) {
  sys::Cluster cluster(sys::ib_testbed());
  sys::Node& n0 = cluster.node(0);
  // Two full groups of Rng::kLanes pages, then a partial group of one,
  // behind a head of 0, 3096 or 1 bytes and ahead of a 0- or 123-byte
  // tail. Each case gets its own untouched window, 64 pages apart.
  const std::uint64_t pages = 2 * Rng::kLanes + 1;
  std::uint64_t window = 0;
  for (const mem::Addr base :
       {mem::AddressMap::kGpuDramBase, mem::AddressMap::kHostDramBase}) {
    for (const std::uint64_t offset : {0ull, 1000ull, 4095ull}) {
      for (const std::uint64_t tail : {0ull, 123ull}) {
        const std::uint64_t head = (kPage - offset) % kPage;
        const std::uint64_t len = head + pages * kPage + tail;
        const mem::Addr addr =
            base + kUntouched + 64 * kPage * ++window + offset;
        const std::uint64_t seed = 1000 + window;
        fill_pattern(n0, addr, len, seed);
        std::vector<std::uint8_t> want(len);
        Rng rng(seed);
        for (auto& byte : want) byte = rng.next_byte();
        std::vector<std::uint8_t> got(len + 2);
        n0.memory().read(addr - 1, got);
        const std::string where = "offset=" + std::to_string(offset) +
                                  " tail=" + std::to_string(tail);
        EXPECT_EQ(got.front(), 0u) << where;  // nothing written before
        EXPECT_EQ(got.back(), 0u) << where;   // nor after
        EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin() + 1))
            << where;
      }
    }
  }
}

TEST(PayloadVerify, RangesEqualEdgeCases) {
  sys::Cluster cluster(sys::ib_testbed());
  sys::Node& n0 = cluster.node(0);
  sys::Node& n1 = cluster.node(1);
  const mem::Addr a = mem::AddressMap::kGpuDramBase + kUntouched;
  const mem::Addr b = a + 64 * kPage;
  EXPECT_TRUE(ranges_equal(n0, a, n1, b, 0));

  // An absent page equals an explicitly zeroed one.
  ASSERT_EQ(n0.memory().span_in_page(a, kPage), nullptr);
  const std::vector<std::uint8_t> zeros(2 * kPage, 0);
  n1.memory().write(b, zeros);
  EXPECT_TRUE(ranges_equal(n0, a, n1, b, 2 * kPage));
  EXPECT_TRUE(ranges_equal(n1, b, n0, a, 2 * kPage));

  // Same bytes at different page offsets on the two sides.
  const std::uint64_t len = 3 * kPage + 77;
  const mem::Addr src = a + 100;
  const mem::Addr dst = b + 3000;
  fill_pattern(n0, src, len, 9);
  fill_pattern(n1, dst, len, 9);
  EXPECT_TRUE(ranges_equal(n0, src, n1, dst, len));

  // A one-byte difference is detected in the last byte and on either
  // side of each range's page boundaries.
  for (const std::uint64_t at :
       {len - 1, kPage - 101, kPage - 100, kPage - 3001, kPage - 3000}) {
    std::uint8_t orig = 0;
    n1.memory().read(dst + at, {&orig, 1});
    const auto flipped = static_cast<std::uint8_t>(orig ^ 0x01);
    n1.memory().write(dst + at, {&flipped, 1});
    EXPECT_FALSE(ranges_equal(n0, src, n1, dst, len)) << "at=" << at;
    n1.memory().write(dst + at, {&orig, 1});
    EXPECT_TRUE(ranges_equal(n0, src, n1, dst, len)) << "at=" << at;
  }
}

TEST(GpuAware, WarpPingPongMovesCorrectBytes) {
  auto r = run_ib_pingpong_warp(sys::ib_testbed(), 1024, 10);
  EXPECT_TRUE(r.payload_ok);
  EXPECT_GT(r.half_rtt_us, 0.5);
}

TEST(GpuAware, WarpPostingIsSubstantiallyCheaper) {
  const auto cfg = sys::ib_testbed();
  const auto classic = run_ib_pingpong(cfg, TransferMode::kGpuDirect,
                                       QueueLocation::kGpuMemory, 64, 20);
  const auto warp = run_ib_pingpong_warp(cfg, 64, 20);
  ASSERT_TRUE(classic.payload_ok && warp.payload_ok);
  // Claim 2: posting cost drops by at least 2x and latency improves.
  EXPECT_LT(warp.post_sum_us, 0.5 * classic.post_sum_us);
  EXPECT_LT(warp.half_rtt_us, classic.half_rtt_us);
}

TEST(GpuAware, GpuNotificationsEliminateSysmemPolling) {
  const auto cfg = sys::extoll_testbed();
  const auto sysq = run_extoll_pingpong(cfg, TransferMode::kGpuDirect, 64,
                                        20);
  const auto gpuq = run_extoll_pingpong_gpu_notifications(cfg, 64, 20);
  ASSERT_TRUE(sysq.payload_ok && gpuq.payload_ok);
  // Claim 3: zero system-memory reads, L2-resident polling, and the
  // latency gap to host-controlled closes.
  EXPECT_GT(sysq.gpu0.sysmem_read_transactions, 100u);
  EXPECT_EQ(gpuq.gpu0.sysmem_read_transactions, 0u);
  EXPECT_GT(gpuq.gpu0.l2_read_hits, 100u);
  EXPECT_LT(gpuq.half_rtt_us, sysq.half_rtt_us);
}

TEST(GpuAware, RelocationValidatesItsArguments) {
  sys::Cluster cluster(sys::extoll_testbed());
  sys::Node& n0 = cluster.node(0);
  auto port = ExtollHostPort::open(n0.extoll(), 0);
  ASSERT_TRUE(port.is_ok());
  const mem::Addr base = n0.gpu_heap().alloc(1024 * 16, 64);
  const mem::Addr rp = n0.gpu_heap().alloc(8, 8);
  // Closed port.
  EXPECT_FALSE(n0.extoll()
                   .relocate_notification_queues(5, base, rp, base, rp, 1024)
                   .is_ok());
  // Non-power-of-two entries.
  EXPECT_FALSE(n0.extoll()
                   .relocate_notification_queues(0, base, rp, base, rp, 1000)
                   .is_ok());
  // Non-DRAM target.
  EXPECT_FALSE(n0.extoll()
                   .relocate_notification_queues(
                       0, mem::AddressMap::kExtollBarBase, rp, base, rp, 1024)
                   .is_ok());
  // Valid.
  EXPECT_TRUE(n0.extoll()
                  .relocate_notification_queues(0, base, rp, base + 8192, rp,
                                                512)
                  .is_ok());
}

TEST(GpuAware, PreswappedPostIsCheaperAndEquivalent) {
  // The ablation's two variants must produce the same wire bytes.
  for (bool preswap : {false, true}) {
    sys::Cluster cluster(sys::ib_testbed());
    sys::Node& n0 = cluster.node(0);
    auto pair = IbPair::create(cluster, QueueLocation::kGpuMemory, 64, 9);
    ASSERT_TRUE(pair.is_ok());
    const mem::Addr table = make_qp_table(n0, pair->ep0.qp().qpn, 8);
    const mem::Addr qpc = make_qp_device_context(n0, pair->ep0, table, 8);
    IbPostSendTemplate tmpl;
    tmpl.opcode = ib::WqeOpcode::kRdmaWrite;
    tmpl.signaled = true;
    tmpl.byte_len = 64;
    tmpl.lkey = pair->mr_send0.lkey;
    tmpl.rkey = pair->mr_recv1.rkey;
    tmpl.preswap_static_fields = preswap;
    gpu::Assembler a("post");
    const gpu::Reg qpc_r(9), laddr(10), raddr(11), wr_id(12);
    const gpu::Reg s0(23), s1(24), s2(25), s3(26), s4(27), s5(28);
    a.movi(qpc_r, static_cast<std::int64_t>(qpc));
    a.movi(laddr, static_cast<std::int64_t>(pair->send0));
    a.movi(raddr, static_cast<std::int64_t>(pair->recv1));
    a.movi(wr_id, 7);
    emit_ib_post_send(a, {qpc_r, laddr, raddr, wr_id}, tmpl, s0, s1, s2, s3,
                      s4, s5);
    a.exit();
    auto prog = a.finish();
    ASSERT_TRUE(prog.is_ok());
    bool done = false;
    n0.gpu().launch({.program = &prog.value(), .params = {}},
                    [&] { done = true; });
    ASSERT_TRUE(cluster.run_until([&] { return done; }));
    cluster.sim().run_until(cluster.sim().now() + microseconds(100));
    std::uint8_t bytes[ib::kSendWqeBytes];
    n0.memory().read(pair->ep0.qp().sq_buffer, bytes);
    const ib::SendWqe wqe = ib::decode_send_wqe(bytes);
    EXPECT_EQ(wqe.byte_len, 64u) << "preswap=" << preswap;
    EXPECT_EQ(wqe.lkey, pair->mr_send0.lkey) << "preswap=" << preswap;
    EXPECT_EQ(wqe.rkey, pair->mr_recv1.rkey) << "preswap=" << preswap;
    EXPECT_EQ(wqe.laddr, pair->send0) << "preswap=" << preswap;
  }
}

}  // namespace
}  // namespace pg::putget
