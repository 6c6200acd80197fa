// The paper's §5 unit-cost rules as DirqNetwork books them: every case
// runs once on the built-in instant transport and once on LMAC, on an
// explicit-link line or star, and checks what one step cost in the global
// ledger and in each node's tx/rx counter, then three-way ledger parity
// (tests/support/ledger_parity.hpp). The transports only route; their own
// suites (core.transport_test, core.lmac_transport_test) check who hears
// each frame.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/lmac_transport.hpp"
#include "core/network.hpp"
#include "mac/lmac.hpp"
#include "net/topology.hpp"
#include "query/query.hpp"
#include "sim/scheduler.hpp"
#include "support/ledger_parity.hpp"

namespace dirq::core {
namespace {

constexpr SensorType kT = kSensorTemperature;

/// Nodes 1..n-1 carry temperature; node 0, the root, carries nothing.
std::vector<net::Node> sensed(std::size_t n) {
  std::vector<net::Node> nodes(n);
  for (std::size_t i = 1; i < n; ++i) nodes[i].sensors = {kT};
  return nodes;
}

/// 0 - 1 - ... - (n-1).
net::Topology line(std::size_t n) {
  std::vector<std::pair<NodeId, NodeId>> links;
  for (NodeId u = 1; u < n; ++u) links.emplace_back(u - 1, u);
  return net::Topology(sensed(n), links);
}

/// Centre 0 with leaves 1..n-1.
net::Topology star(std::size_t n) {
  std::vector<std::pair<NodeId, NodeId>> links;
  for (NodeId u = 1; u < n; ++u) links.emplace_back(0, u);
  return net::Topology(sensed(n), links);
}

/// A network rooted at node 0 on the instant transport or, with `lmac`,
/// on LMAC, carrying the bootstrap announce wave's ledger over at the
/// swap as Experiment::run does.
struct Rig {
  net::Topology topo;
  DirqNetwork net;
  sim::Scheduler sched;
  std::unique_ptr<mac::LmacNetwork> mac;
  std::unique_ptr<LmacTransport> transport;

  Rig(net::Topology t, bool lmac)
      : topo(std::move(t)), net(topo, 0, NetworkConfig{}) {
    if (!lmac) return;
    mac = std::make_unique<mac::LmacNetwork>(sched, topo, small());
    transport = std::make_unique<LmacTransport>(*mac, net);
    transport->mutable_costs() = net.costs();
    net.use_transport(*transport);
    mac->start();
  }

  static mac::LmacConfig small() {
    mac::LmacConfig c;
    c.slots_per_frame = 8;
    c.ticks_per_slot = 8;
    return c;
  }

  /// Lets every queued frame go out (on LMAC a reception can queue a
  /// re-flood for a later slot, so three frames).
  void settle() {
    if (mac) sched.run_until(sched.now() + 3 * small().frame_ticks());
  }

  /// Leaf `u`'s first sample: one update to its parent.
  void report(NodeId u, double reading) {
    net.node(u).observe_slot(0, kT, reading, 0);
    settle();
  }
};

/// What one step cost: the global ledger's and every node's deltas.
struct Bill {
  CostLedger ledger;
  std::vector<CostUnits> tx, rx;
};

Bill snapshot(const Rig& r) {
  Bill b{r.net.costs(), {}, {}};
  for (NodeId u = 0; u < r.net.size(); ++u) {
    b.tx.push_back(r.net.node_tx(u));
    b.rx.push_back(r.net.node_rx(u));
  }
  return b;
}

/// Runs `step`, lets its frames go out, and returns what it cost; the
/// ledgers and counters must reconcile afterwards.
template <typename Step>
Bill cost_of(Rig& r, Step step) {
  const Bill before = snapshot(r);
  step();
  r.settle();
  Bill d = snapshot(r);
  d.ledger.query_tx -= before.ledger.query_tx;
  d.ledger.query_rx -= before.ledger.query_rx;
  d.ledger.update_tx -= before.ledger.update_tx;
  d.ledger.update_rx -= before.ledger.update_rx;
  d.ledger.control_tx -= before.ledger.control_tx;
  d.ledger.control_rx -= before.ledger.control_rx;
  for (std::size_t u = 0; u < d.tx.size(); ++u) {
    d.tx[u] -= before.tx[u];
    d.rx[u] -= before.rx[u];
  }
  expect_ledger_reconciles(r.net, r.topo);
  return d;
}

/// `want` lists every field: query tx/rx, update tx/rx, control tx/rx.
void expect_ledger(const CostLedger& got, const CostLedger& want) {
  EXPECT_EQ(got.query_tx, want.query_tx);
  EXPECT_EQ(got.query_rx, want.query_rx);
  EXPECT_EQ(got.update_tx, want.update_tx);
  EXPECT_EQ(got.update_rx, want.update_rx);
  EXPECT_EQ(got.control_tx, want.control_tx);
  EXPECT_EQ(got.control_rx, want.control_rx);
}

using Counts = std::vector<CostUnits>;

class NetworkAccounting : public ::testing::TestWithParam<bool> {};

TEST_P(NetworkAccounting, UnicastCostsOneTxAndOneRx) {
  Rig r(line(2), GetParam());
  const Bill b = cost_of(r, [&] { r.net.node(1).observe_slot(0, kT, 20.0, 0); });
  expect_ledger(b.ledger, CostLedger{0, 0, 1, 1, 0, 0});
  EXPECT_EQ(b.tx, (Counts{0, 1}));
  EXPECT_EQ(b.rx, (Counts{1, 0}));
}

TEST_P(NetworkAccounting, DeadRecipientCostsTxOnly) {
  Rig r(line(3), GetParam());
  r.topo.kill_node(1);  // no repair: node 2 still reports to node 1
  const Bill b = cost_of(r, [&] { r.net.node(2).observe_slot(0, kT, 20.0, 0); });
  expect_ledger(b.ledger, CostLedger{0, 0, 1, 0, 0, 0});
  EXPECT_EQ(b.tx, (Counts{0, 0, 1}));
  EXPECT_EQ(b.rx, (Counts{0, 0, 0}));
}

TEST_P(NetworkAccounting, OutOfRangeRecipientCostsTxOnly) {
  Rig r(line(3), GetParam());
  r.net.node(2).set_parent(0, 0);  // two hops away
  const Bill b = cost_of(r, [&] { r.net.node(2).observe_slot(0, kT, 20.0, 0); });
  expect_ledger(b.ledger, CostLedger{0, 0, 1, 0, 0, 0});
  EXPECT_EQ(b.tx, (Counts{0, 0, 1}));
  EXPECT_EQ(b.rx, (Counts{0, 0, 0}));
}

TEST_P(NetworkAccounting, MulticastCostsOneTxAndOneRxPerAddressedAliveNeighbour) {
  // The root addresses leaves 1-3 (their tuples overlap the window); leaf
  // 2 is dead and leaf 4 is not addressed.
  Rig r(star(5), GetParam());
  for (NodeId u : {1u, 2u, 3u}) r.report(u, 10.0);
  r.report(4, 30.0);
  r.topo.kill_node(2);
  const Bill b = cost_of(r, [&] {
    r.net.inject_async(0, query::RangeQuery(1, kT, 5.0, 15.0, 0), 0);
  });
  const QueryOutcome out = r.net.collect_outcome();
  expect_ledger(b.ledger, CostLedger{1, 2, 0, 0, 0, 0});
  EXPECT_EQ(b.tx, (Counts{1, 0, 0, 0, 0}));
  EXPECT_EQ(b.rx, (Counts{0, 1, 0, 1, 0}));
  EXPECT_EQ(out.received, (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(out.cost, 3);
}

TEST_P(NetworkAccounting, EmptyMulticastIsFree) {
  // No child's tuple overlaps the window: the root addresses nobody.
  Rig r(star(3), GetParam());
  r.report(1, 10.0);
  r.report(2, 10.0);
  const Bill b = cost_of(r, [&] {
    r.net.inject_async(0, query::RangeQuery(1, kT, 100.0, 200.0, 0), 0);
  });
  const QueryOutcome out = r.net.collect_outcome();
  expect_ledger(b.ledger, CostLedger{});
  EXPECT_EQ(b.tx, (Counts{0, 0, 0}));
  EXPECT_EQ(b.rx, (Counts{0, 0, 0}));
  EXPECT_TRUE(out.received.empty());
  EXPECT_EQ(out.cost, 0);
}

TEST_P(NetworkAccounting, BroadcastCostsOneTxAndOneRxPerAliveNeighbour) {
  // The root's EHr broadcast is heard by alive leaves 1 and 3, not by
  // dead leaf 2; each leaf re-floods once, heard by the root alone.
  Rig r(star(4), GetParam());
  r.topo.kill_node(2);
  const Bill b = cost_of(r, [&] { r.net.broadcast_ehr(0, 100.0, 0); });
  expect_ledger(b.ledger, CostLedger{0, 0, 0, 0, 3, 4});
  EXPECT_EQ(b.tx, (Counts{1, 1, 0, 1}));
  EXPECT_EQ(b.rx, (Counts{2, 1, 0, 1}));
}

TEST_P(NetworkAccounting, EachKindLandsInItsOwnFields) {
  Rig r(line(2), GetParam());
  // Update: the leaf's first sample.
  expect_ledger(
      cost_of(r, [&] { r.net.node(1).observe_slot(0, kT, 20.0, 0); }).ledger,
      CostLedger{0, 0, 1, 1, 0, 0});
  // Query and multi-query: the root addresses the leaf.
  expect_ledger(cost_of(r, [&] {
                  r.net.inject_async(
                      0, query::RangeQuery(1, kT, 15.0, 25.0, 0), 0);
                }).ledger,
                CostLedger{1, 1, 0, 0, 0, 0});
  EXPECT_EQ(r.net.collect_outcome().received, (std::vector<NodeId>{1}));
  query::MultiQuery mq;
  mq.id = 2;
  mq.predicates = {query::AttributePredicate{kT, 15.0, 25.0}};
  expect_ledger(cost_of(r, [&] { r.net.inject_async(0, mq, 0); }).ledger,
                CostLedger{1, 1, 0, 0, 0, 0});
  EXPECT_EQ(r.net.collect_outcome().received, (std::vector<NodeId>{1}));
  // Control: the EHr flood (the root's broadcast, the leaf's re-flood).
  expect_ledger(
      cost_of(r, [&] { r.net.broadcast_ehr(0, 100.0, 0); }).ledger,
      CostLedger{0, 0, 0, 0, 2, 2});
  // Control: a location announcement, beside the re-announced update.
  expect_ledger(
      cost_of(r, [&] { r.net.node(1).force_reannounce(0, 0); }).ledger,
      CostLedger{0, 0, 1, 1, 1, 1});
}

std::string transport_name(const ::testing::TestParamInfo<bool>& p) {
  return p.param ? "lmac" : "instant";
}

INSTANTIATE_TEST_SUITE_P(Transports, NetworkAccounting,
                         ::testing::Values(false, true), transport_name);

}  // namespace
}  // namespace dirq::core
