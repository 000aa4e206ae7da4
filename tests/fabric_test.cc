// Coverage for the routed fabric layer: topology shape validation,
// route computation (dimension-order, up/down, BFS) with its
// determinism guarantees, reachability checking, switch-vertex shard
// assignment, the duplicate-route hard errors in the NICs and
// switches, and the wire size of payload frames over direct and relayed
// routes.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/bitops.h"
#include "common/units.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "putget/ib_host.h"
#include "sim/simulation.h"
#include "sys/cluster.h"
#include "sys/testbed.h"

namespace pg {
namespace {

// --- Topology names and shapes ----------------------------------------------

TEST(TopologyNames, RoundTripThroughParse) {
  for (net::Topology t :
       {net::Topology::kPair, net::Topology::kRing, net::Topology::kFullMesh,
        net::Topology::kTorus2D, net::Topology::kFatTree}) {
    auto parsed = net::parse_topology(net::topology_name(t));
    ASSERT_TRUE(parsed.is_ok()) << net::topology_name(t);
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_STREQ(net::topology_name(net::Topology::kTorus2D), "torus2d");
  EXPECT_STREQ(net::topology_name(net::Topology::kFatTree), "fat-tree");
  EXPECT_EQ(net::parse_topology("hypercube").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TorusDims, FactorsIntoWidestGrid) {
  auto d8 = net::torus_dims(8);
  ASSERT_TRUE(d8.is_ok());
  EXPECT_EQ(d8->rows, 2);
  EXPECT_EQ(d8->cols, 4);
  auto d16 = net::torus_dims(16);
  ASSERT_TRUE(d16.is_ok());
  EXPECT_EQ(d16->rows, 4);
  EXPECT_EQ(d16->cols, 4);
  auto d12 = net::torus_dims(12);
  ASSERT_TRUE(d12.is_ok());
  EXPECT_EQ(d12->rows, 3);
  EXPECT_EQ(d12->cols, 4);
}

TEST(TorusDims, RejectsPrimesAndTinyCounts) {
  EXPECT_FALSE(net::torus_dims(2).is_ok());
  EXPECT_FALSE(net::torus_dims(3).is_ok());
  EXPECT_FALSE(net::torus_dims(7).is_ok());   // prime: no 2-D factoring
  EXPECT_FALSE(net::torus_dims(13).is_ok());
  EXPECT_FALSE(sys::Cluster::validate([] {
                 sys::ClusterConfig cfg = sys::extoll_testbed();
                 cfg.num_nodes = 7;
                 cfg.topology = net::Topology::kTorus2D;
                 return cfg;
               }())
                   .is_ok());
}

TEST(FatTreeShape, CeilSqrtHalfArity) {
  auto s8 = net::fat_tree_shape(8);
  ASSERT_TRUE(s8.is_ok());
  EXPECT_EQ(s8->half_arity, 3);
  EXPECT_EQ(s8->leaves, 3);
  EXPECT_EQ(s8->spines, 3);
  auto s16 = net::fat_tree_shape(16);
  ASSERT_TRUE(s16.is_ok());
  EXPECT_EQ(s16->half_arity, 4);
  EXPECT_EQ(s16->leaves, 4);
  EXPECT_EQ(s16->spines, 4);
  EXPECT_FALSE(net::fat_tree_shape(1).is_ok());
}

// --- Route computation ------------------------------------------------------

TEST(Routes, PairTopologyLeavesCrossPairsUnreachable) {
  auto plan = net::build_fabric_plan(net::Topology::kPair, 4);
  ASSERT_TRUE(plan.is_ok());
  const net::RouteTables routes = net::compute_routes(*plan);
  EXPECT_TRUE(routes.reachable(0, 1));
  EXPECT_FALSE(routes.reachable(0, 2));
  EXPECT_EQ(net::path_hops(*plan, routes, 0, 2), -1);
  const Status s = net::check_reachable(*plan, routes);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("cannot reach"), std::string::npos);
}

TEST(Routes, BfsTablesAreIdenticalAcrossRuns) {
  for (net::Topology t : {net::Topology::kRing, net::Topology::kFullMesh}) {
    auto plan = net::build_fabric_plan(t, 8);
    ASSERT_TRUE(plan.is_ok());
    const net::RouteTables a = net::compute_routes(*plan);
    const net::RouteTables b = net::compute_routes(*plan);
    for (int v = 0; v < plan->num_vertices(); ++v) {
      for (int dst = 0; dst < plan->num_terminals; ++dst) {
        EXPECT_EQ(a.next_edge(v, dst), b.next_edge(v, dst))
            << net::topology_name(t) << " vertex " << v << " dst " << dst;
      }
    }
  }
}

TEST(Routes, TorusDimensionOrderHopCounts) {
  auto plan = net::build_fabric_plan(net::Topology::kTorus2D, 16);  // 4x4
  ASSERT_TRUE(plan.is_ok());
  const net::RouteTables routes = net::compute_routes(*plan);
  ASSERT_TRUE(net::check_reachable(*plan, routes).is_ok());
  // (0,0) -> (3,3): one wrap hop in each dimension.
  EXPECT_EQ(net::path_hops(*plan, routes, 0, 15), 2);
  // (0,0) -> (1,1): one +1 hop per dimension.
  EXPECT_EQ(net::path_hops(*plan, routes, 0, 5), 2);
  // (0,0) -> (0,2): halfway tie in the column ring breaks toward +1.
  EXPECT_EQ(net::path_hops(*plan, routes, 0, 2), 2);
  // (0,0) -> (2,2): worst case on a 4x4 is 2 + 2.
  EXPECT_EQ(net::path_hops(*plan, routes, 0, 10), 4);
}

TEST(Routes, FatTreeUpDownHopCounts) {
  auto plan = net::build_fabric_plan(net::Topology::kFatTree, 8);
  ASSERT_TRUE(plan.is_ok());
  EXPECT_EQ(plan->num_switches, 6);  // 3 leaves + 3 spines
  const net::RouteTables routes = net::compute_routes(*plan);
  ASSERT_TRUE(net::check_reachable(*plan, routes).is_ok());
  // Same leaf (terminals 0..2 share leaf 0): up, down.
  EXPECT_EQ(net::path_hops(*plan, routes, 0, 1), 2);
  // Different leaves: up, spine, down.
  EXPECT_EQ(net::path_hops(*plan, routes, 0, 3), 4);
  EXPECT_EQ(net::path_hops(*plan, routes, 7, 0), 4);
}

TEST(Routes, SwitchShardAssignmentIsDeterministic) {
  auto plan = net::build_fabric_plan(net::Topology::kFatTree, 8);
  ASSERT_TRUE(plan.is_ok());
  // Terminals run on their own shard.
  for (int t = 0; t < 8; ++t) EXPECT_EQ(net::switch_shard(*plan, t), t);
  // Leaves run beside their lowest terminal (half-arity 3).
  EXPECT_EQ(net::switch_shard(*plan, 8), 0);
  EXPECT_EQ(net::switch_shard(*plan, 9), 3);
  EXPECT_EQ(net::switch_shard(*plan, 10), 6);
  // Spines have no terminal neighbours: vertex id modulo terminals.
  EXPECT_EQ(net::switch_shard(*plan, 11), 3);
  EXPECT_EQ(net::switch_shard(*plan, 12), 4);
  EXPECT_EQ(net::switch_shard(*plan, 13), 5);
  for (int v = 0; v < plan->num_vertices(); ++v) {
    EXPECT_EQ(net::switch_shard(*plan, v), net::switch_shard(*plan, v));
  }
}

// --- Reversed-pair double links ---------------------------------------------

TEST(Routes, TwoNodeRingKeepsBothDirectionsOnTheFirstLink) {
  // The two-node ring plans {0,1} and {1,0} — a legal reversed pair.
  // BFS must resolve both directions to the first-planned link, exactly
  // like the legacy first-wins route fill did.
  sys::ClusterConfig cfg = sys::extoll_testbed();
  cfg.num_nodes = 2;
  cfg.topology = net::Topology::kRing;
  sys::Cluster cluster(cfg);
  ASSERT_EQ(cluster.fabric_plan().edges.size(), 2u);
  EXPECT_EQ(cluster.extoll_route(0, 1).link, cluster.extoll_link());
  EXPECT_EQ(cluster.extoll_route(1, 0).link, cluster.extoll_link());
  EXPECT_EQ(cluster.extoll_route(0, 1).side, 0);
  EXPECT_EQ(cluster.extoll_route(1, 0).side, 1);
}

// --- Duplicate-route registration (regression: used to be silently
// first-wins) ----------------------------------------------------------------

TEST(DuplicateRoutes, ExtollAddRouteRejectsSecondBinding) {
  sys::ClusterConfig cfg = sys::extoll_testbed();
  cfg.num_nodes = 4;
  cfg.topology = net::Topology::kRing;
  sys::Cluster cluster(cfg);
  // The cluster's route pass already bound node 1; any re-registration
  // is a hard error, even for the same next hop.
  const sys::Cluster::Route r = cluster.extoll_route(0, 1);
  ASSERT_NE(r.link, nullptr);
  const Status s = cluster.node(0).extoll().add_route(1, r.link, r.side);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("duplicate route"), std::string::npos);
}

TEST(DuplicateRoutes, IbAddRouteRejectsSecondBinding) {
  sys::ClusterConfig cfg = sys::ib_testbed();
  cfg.num_nodes = 4;
  cfg.topology = net::Topology::kRing;
  sys::Cluster cluster(cfg);
  const sys::Cluster::Route r = cluster.ib_route(0, 1);
  ASSERT_NE(r.link, nullptr);
  EXPECT_EQ(cluster.node(0).hca().add_route(1, r.link, r.side).code(),
            StatusCode::kInvalidArgument);
}

TEST(DuplicateRoutes, RoutedConnectQpRejectsReRouting) {
  sys::ClusterConfig cfg = sys::ib_testbed();
  cfg.num_nodes = 4;
  cfg.topology = net::Topology::kRing;
  sys::Cluster cluster(cfg);
  putget::IbHostEndpoint::Options opts;
  auto ea = putget::IbHostEndpoint::create(cluster.node(0), opts);
  auto eb = putget::IbHostEndpoint::create(cluster.node(1), opts);
  ASSERT_TRUE(ea.is_ok());
  ASSERT_TRUE(eb.is_ok());
  const sys::Cluster::Route r = cluster.ib_route(0, 1);
  ASSERT_TRUE(cluster.node(0)
                  .hca()
                  .connect_qp(ea->qp().qpn, eb->qp().qpn, r.link, r.side, 1)
                  .is_ok());
  const Status again = cluster.node(0).hca().connect_qp(
      ea->qp().qpn, eb->qp().qpn, r.link, r.side, 1);
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument);
}

TEST(DuplicateRoutes, SwitchNextHopRejectsConflictingPort) {
  sim::Simulation sim;
  net::NetConfig cfg;
  net::NetworkLink l1(sim, cfg);
  net::NetworkLink l2(sim, cfg);
  net::Switch sw("test.s0", 2);
  const int p0 = sw.add_port(&l1, 0);
  const int p1 = sw.add_port(&l2, 0);
  EXPECT_TRUE(sw.set_next_hop(0, p0).is_ok());
  EXPECT_TRUE(sw.set_next_hop(0, p0).is_ok());  // idempotent re-bind
  EXPECT_EQ(sw.set_next_hop(0, p1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sw.set_next_hop(1, 7).code(), StatusCode::kInvalidArgument);
}

// --- First-hop lookups on the cluster ---------------------------------------

TEST(FirstHop, PairTopologyReturnsNullAcrossPairs) {
  sys::ClusterConfig cfg = sys::default_testbed();
  cfg.num_nodes = 4;
  cfg.topology = net::Topology::kPair;
  sys::Cluster cluster(cfg);
  EXPECT_NE(cluster.extoll_route(0, 1).link, nullptr);
  EXPECT_EQ(cluster.extoll_route(0, 2).link, nullptr);
  EXPECT_EQ(cluster.ib_route(1, 2).link, nullptr);
  EXPECT_EQ(cluster.extoll_route(2, 2).link, nullptr);
}

TEST(FirstHop, RingGivesEveryPairAnEgress) {
  sys::ClusterConfig cfg = sys::extoll_testbed();
  cfg.num_nodes = 6;
  cfg.topology = net::Topology::kRing;
  sys::Cluster cluster(cfg);
  for (int from = 0; from < 6; ++from) {
    for (int to = 0; to < 6; ++to) {
      if (from == to) continue;
      EXPECT_NE(cluster.extoll_route(from, to).link, nullptr)
          << from << "->" << to;
    }
  }
  EXPECT_EQ(
      net::path_hops(cluster.fabric_plan(), cluster.routes(), 0, 3), 3);
}

// --- Wire size of payload frames --------------------------------------------

// A frame's wire size is its encoded header plus its payload body. These
// pin that rule end to end: a put of n bytes is ceil(n / segment) frames,
// so it must add exactly frames x header + n bytes everywhere bytes are
// counted.
enum class WireFabric { kExtoll, kIb };
constexpr WireFabric kWireFabrics[] = {WireFabric::kExtoll, WireFabric::kIb};
constexpr std::uint32_t kWireSizes[] = {100, 64 * KiB, 3 * 64 * KiB + 5};
constexpr std::uint64_t kWireRegion = 256 * KiB;

const char* wire_name(WireFabric w) {
  return w == WireFabric::kExtoll ? "extoll" : "ib";
}

std::uint64_t wire_header(WireFabric w) {
  return w == WireFabric::kExtoll ? 32 : 44;
}

std::uint64_t put_wire_bytes(WireFabric w, std::uint64_t n) {
  return div_ceil(n, 64 * KiB) * wire_header(w) + n;
}

sys::ClusterConfig wire_testbed(WireFabric w) {
  return w == WireFabric::kExtoll ? sys::extoll_testbed() : sys::ib_testbed();
}

const net::FabricTotals& nic_totals(sys::Cluster& c, WireFabric w, int node) {
  return w == WireFabric::kExtoll ? c.node(node).extoll().fabric_totals()
                                  : c.node(node).hca().fabric_totals();
}

sys::Cluster::Route first_hop(sys::Cluster& c, WireFabric w, int from,
                              int to) {
  return w == WireFabric::kExtoll ? c.extoll_route(from, to)
                                  : c.ib_route(from, to);
}

/// The terminals a routed frame from `from` to `to` passes through.
std::vector<int> relays_on_path(sys::Cluster& c, int from, int to) {
  std::vector<int> relays;
  for (int v = from; v != to;) {
    const net::LinkPlan& e =
        c.fabric_plan().edges[c.routes().next_edge(v, to)];
    v = e.a == v ? e.b : e.a;
    if (v != to) relays.push_back(v);
  }
  return relays;
}

/// Puts from GPU memory on `from` to GPU memory on `to`, straight
/// through the NICs: an EXTOLL put WR without notifications, or an IB
/// RDMA write over a routed QP pair. Each put runs until it has fully
/// retired: for EXTOLL when the target completed it, for IB when the
/// initiator's CQE lands, which the returning ACK triggers.
class WirePut {
 public:
  WirePut(sys::Cluster& c, WireFabric w, int from, int to)
      : c_(c), w_(w), from_(from), to_(to) {}

  void setup() {
    sys::Node& a = c_.node(from_);
    sys::Node& b = c_.node(to_);
    src_ = a.gpu_heap().alloc(kWireRegion, 4096);
    dst_ = b.gpu_heap().alloc(kWireRegion, 4096);
    if (w_ == WireFabric::kExtoll) {
      ASSERT_TRUE(a.extoll().open_port(0).is_ok());
      auto s = a.extoll().register_memory(src_, kWireRegion,
                                          mem::Access::kReadWrite);
      auto d = b.extoll().register_memory(dst_, kWireRegion,
                                          mem::Access::kReadWrite);
      ASSERT_TRUE(s.is_ok() && d.is_ok());
      src_nla_ = *s;
      dst_nla_ = *d;
      return;
    }
    putget::IbHostEndpoint::Options opts;
    auto ea = putget::IbHostEndpoint::create(a, opts);
    auto eb = putget::IbHostEndpoint::create(b, opts);
    ASSERT_TRUE(ea.is_ok() && eb.is_ok());
    ea_.emplace(*ea);
    eb_.emplace(*eb);
    const sys::Cluster::Route ab = c_.ib_route(from_, to_);
    const sys::Cluster::Route ba = c_.ib_route(to_, from_);
    ASSERT_TRUE(a.hca()
                    .connect_qp(ea_->qp().qpn, eb_->qp().qpn, ab.link,
                                ab.side, to_)
                    .is_ok());
    ASSERT_TRUE(b.hca()
                    .connect_qp(eb_->qp().qpn, ea_->qp().qpn, ba.link,
                                ba.side, from_)
                    .is_ok());
    auto ms = ea_->reg_mr(src_, kWireRegion, mem::Access::kReadWrite);
    auto md = eb_->reg_mr(dst_, kWireRegion, mem::Access::kReadWrite);
    ASSERT_TRUE(ms.is_ok() && md.is_ok());
    lkey_ = ms->lkey;
    rkey_ = md->rkey;
  }

  void put(std::uint32_t n) {
    if (w_ == WireFabric::kExtoll) {
      extoll::ExtollNic& target = c_.node(to_).extoll();
      const std::uint64_t done = target.puts_completed() + 1;
      extoll::WorkRequest wr;
      wr.cmd = extoll::RmaCmd::kPut;
      wr.port = 0;
      wr.size = n;
      wr.dst_node = to_;
      wr.src_nla = src_nla_;
      wr.dst_nla = dst_nla_;
      c_.node(from_).extoll().post_work_request(wr);
      ASSERT_TRUE(
          c_.run_until([&] { return target.puts_completed() == done; }));
      return;
    }
    ib::SendWqe wqe;
    wqe.opcode = ib::WqeOpcode::kRdmaWrite;
    wqe.signaled = true;
    wqe.byte_len = n;
    wqe.laddr = src_;
    wqe.lkey = lkey_;
    wqe.raddr = dst_;
    wqe.rkey = rkey_;
    wqe.wr_id = ++wr_id_;
    ib::Cqe cqe;
    sim::Trigger done;
    host::HostCpu& cpu = c_.node(from_).cpu();
    auto post = ea_->post_send(cpu, wqe);
    auto wait = ea_->wait_cqe(cpu, &cqe, &done);
    ASSERT_TRUE(c_.run_until([&] { return done.fired(); }));
    EXPECT_EQ(cqe.status, ib::WcStatus::kSuccess);
  }

 private:
  sys::Cluster& c_;
  WireFabric w_;
  int from_;
  int to_;
  mem::Addr src_ = 0;
  mem::Addr dst_ = 0;
  extoll::Nla src_nla_ = 0;
  extoll::Nla dst_nla_ = 0;
  std::optional<putget::IbHostEndpoint> ea_;
  std::optional<putget::IbHostEndpoint> eb_;
  std::uint32_t lkey_ = 0;
  std::uint32_t rkey_ = 0;
  std::uint64_t wr_id_ = 0;
};

TEST(WireSize, PutAddsHeaderPerFramePlusPayloadBothFabrics) {
  for (WireFabric w : kWireFabrics) {
    sys::Cluster cluster(wire_testbed(w));
    WirePut puts(cluster, w, 0, 1);
    ASSERT_NO_FATAL_FAILURE(puts.setup());
    const sys::Cluster::Route hop = first_hop(cluster, w, 0, 1);
    ASSERT_NE(hop.link, nullptr);
    for (std::uint32_t n : kWireSizes) {
      SCOPED_TRACE(testing::Message() << wire_name(w) << " n " << n);
      const net::FabricTotals before = nic_totals(cluster, w, 0);
      const std::uint64_t sent_before = hop.link->bytes_sent(hop.side);
      ASSERT_NO_FATAL_FAILURE(puts.put(n));
      const net::FabricTotals& after = nic_totals(cluster, w, 0);
      EXPECT_EQ(after.frames_originated - before.frames_originated,
                div_ceil(n, 64 * KiB));
      EXPECT_EQ(after.bytes_originated - before.bytes_originated,
                put_wire_bytes(w, n));
      EXPECT_EQ(hop.link->bytes_sent(hop.side) - sent_before,
                put_wire_bytes(w, n));
    }
  }
}

TEST(WireSize, ThreeHopTorusRelaysForwardTheSameBytes) {
  for (WireFabric w : kWireFabrics) {
    sys::ClusterConfig cfg = wire_testbed(w);
    cfg.num_nodes = 8;
    cfg.topology = net::Topology::kTorus2D;
    sys::Cluster cluster(cfg);
    int to = -1;
    for (int v = 1; v < cluster.num_nodes() && to < 0; ++v) {
      if (net::path_hops(cluster.fabric_plan(), cluster.routes(), 0, v) == 3) {
        to = v;
      }
    }
    ASSERT_GE(to, 0) << "no 3-hop route from node 0";
    const std::vector<int> relays = relays_on_path(cluster, 0, to);
    ASSERT_EQ(relays.size(), 2u);
    // IB's ACK travels back along the reverse route as one header-only
    // frame; a relay on that route forwards it too.
    const std::vector<int> ack_relays = relays_on_path(cluster, to, 0);
    WirePut puts(cluster, w, 0, to);
    ASSERT_NO_FATAL_FAILURE(puts.setup());
    for (std::uint32_t n : kWireSizes) {
      SCOPED_TRACE(testing::Message() << wire_name(w) << " n " << n);
      std::vector<std::uint64_t> nic_before, link_before;
      for (int r : relays) {
        nic_before.push_back(nic_totals(cluster, w, r).bytes_forwarded);
        const sys::Cluster::Route out = first_hop(cluster, w, r, to);
        link_before.push_back(out.link->dir_stats(out.side).forwarded_bytes);
      }
      const std::uint64_t originated_before =
          nic_totals(cluster, w, 0).bytes_originated;
      ASSERT_NO_FATAL_FAILURE(puts.put(n));
      EXPECT_EQ(nic_totals(cluster, w, 0).bytes_originated - originated_before,
                put_wire_bytes(w, n));
      for (std::size_t i = 0; i < relays.size(); ++i) {
        const int r = relays[i];
        const bool forwards_ack =
            w == WireFabric::kIb &&
            std::find(ack_relays.begin(), ack_relays.end(), r) !=
                ack_relays.end();
        EXPECT_EQ(nic_totals(cluster, w, r).bytes_forwarded - nic_before[i],
                  put_wire_bytes(w, n) + (forwards_ack ? wire_header(w) : 0))
            << "relay n" << r;
        const sys::Cluster::Route out = first_hop(cluster, w, r, to);
        EXPECT_EQ(out.link->dir_stats(out.side).forwarded_bytes -
                      link_before[i],
                  put_wire_bytes(w, n))
            << "relay n" << r << " egress link";
      }
    }
  }
}

}  // namespace
}  // namespace pg
