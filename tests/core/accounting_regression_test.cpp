// Regression tests for the epoch-loop accounting edge cases:
//   - deliver() must book rx energy even inside the add_node ->
//     handle_node_addition window, and a frame routed by a direct
//     transport call must keep the ledgers and counters in parity;
//   - a frame tagged with a tree the network lacks is a contract
//     violation that books nothing;
//   - the LMAC post-run drain's keep-alive traffic must not inflate
//     mac_control_total (a 41-epoch run must stay comparable to 40);
//   - the recorded Umax/Hr series and the flooded EhrMessage value must
//     come from the same formula (analysis::umax_messages_per_hour).
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "analysis/cost_model.hpp"
#include "core/experiment.hpp"
#include "core/network.hpp"
#include "net/placement.hpp"
#include "net/spanning_tree.hpp"
#include "sim/rng.hpp"
#include "support/ledger_parity.hpp"

namespace dirq::core {
namespace {

constexpr SensorType kT = kSensorTemperature;

net::Topology line(std::size_t n) {
  std::vector<net::Node> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i].x = static_cast<double>(i);
    if (i > 0) nodes[i].sensors = {kT};
  }
  return net::Topology(std::move(nodes), 1.1);
}

TEST(AccountingRegression, DeliveryInAddNodeWindowIsAttributed) {
  net::Topology topo = line(4);
  NetworkConfig cfg;
  cfg.mode = NetworkConfig::ThetaMode::Fixed;
  cfg.fixed_pct = 5.0;
  DirqNetwork net(topo, 0, cfg);
  expect_ledger_reconciles(net, topo);

  // The newcomer's topology slot (and radio) exists as soon as add_node
  // returns; its protocol instance only after handle_node_addition. A
  // frame arriving in between is booked by deliver() — the per-node
  // distribution must not lose it. The frame comes from a direct
  // transport call, which only routes: no node sent it, so no ledger may
  // carry its transmission either.
  net::Node newcomer;
  newcomer.x = 4.0;
  newcomer.sensors = {kT};
  const NodeId added = topo.add_node(newcomer);
  const CostUnits tx_before = net.costs().control_tx;
  net.transport().unicast(3, added, Message{EhrMessage{}});
  EXPECT_EQ(net.node_rx(added), 1);
  EXPECT_EQ(net.costs().control_tx, tx_before);
  expect_ledger_reconciles(net, topo);

  // Integration replays nothing and loses nothing.
  net.handle_node_addition(added, 1);
  EXPECT_GE(net.node_rx(added), 1);
  expect_ledger_reconciles(net, topo);
}

TEST(AccountingRegression, DeliveryOutsideTopologyIsAContractViolation) {
  net::Topology topo = line(3);
  NetworkConfig cfg;
  DirqNetwork net(topo, 0, cfg);
  EXPECT_THROW(net.deliver(99, 0, Message{EhrMessage{}}), std::logic_error);
}

TEST(AccountingRegression, ForeignTreeFrameThrowsAndBooksNothing) {
  // A one-tree network has no tree 3: booking that frame's reception
  // anywhere would break the sum of the tree ledgers.
  net::Topology topo = line(3);
  DirqNetwork net(topo, 0, NetworkConfig{});
  const CostLedger before = net.costs();
  const CostLedger tree_before = net.tree_ledger(0);
  std::vector<CostUnits> rx_before;
  for (NodeId u = 0; u < topo.size(); ++u) rx_before.push_back(net.node_rx(u));
  UpdateMessage u;
  u.from = 0;
  u.tree = 3;
  EXPECT_THROW(net.deliver(1, 0, Message{u}), std::logic_error);
  EXPECT_EQ(net.costs().total(), before.total());
  EXPECT_EQ(net.costs().update_rx, before.update_rx);
  EXPECT_EQ(net.tree_ledger(0).total(), tree_before.total());
  for (NodeId v = 0; v < topo.size(); ++v) {
    EXPECT_EQ(net.node_rx(v), rx_before[v]) << "node " << v;
  }
  expect_ledger_reconciles(net, topo);
}

ExperimentConfig lmac_cfg(std::int64_t epochs) {
  ExperimentConfig cfg;
  cfg.seed = 7;
  cfg.placement.node_count = 30;
  cfg.epochs = epochs;
  cfg.query_period = 20;
  cfg.transport = TransportKind::Lmac;
  cfg.keep_records = false;
  return cfg;
}

TEST(AccountingRegression, LmacDrainDoesNotInflateControlTotal) {
  // 40 epochs: the final query's dissemination window is already inside
  // the run, the drain is a no-op. 41 epochs: the epoch-40 query needs
  // ~query_period extra drain frames, whose keep-alive traffic must land
  // in mac_control_drain — not make the per-epoch total incomparable.
  const ExperimentResults r40 = Experiment(lmac_cfg(40)).run();
  const ExperimentResults r41 = Experiment(lmac_cfg(41)).run();

  ASSERT_GT(r40.mac_control_total, 0);
  EXPECT_EQ(r40.mac_control_drain, 0);
  EXPECT_GT(r41.mac_control_drain, 0);  // the drained frames, separately

  // Pre-fix, the 41-run folded ~19 drain frames into the total (~+47%).
  // Post-fix it exceeds the 40-run by at most a few epochs' keep-alive.
  EXPECT_GE(r41.mac_control_total, r40.mac_control_total);
  EXPECT_LE(r41.mac_control_total - r40.mac_control_total,
            3 * (r40.mac_control_total / 40));
}

TEST(AccountingRegression, BroadcastEhrReturnsTheCostModelValue) {
  sim::Rng rng(21);
  net::RandomPlacementConfig pcfg;
  net::Topology topo = net::random_connected(pcfg, rng);
  NetworkConfig cfg;
  DirqNetwork net(topo, 0, cfg);
  const double ehr = 180.0;
  const double flooded = net.broadcast_ehr(0, ehr, 0);
  EXPECT_GT(flooded, 0.0);
  EXPECT_DOUBLE_EQ(
      flooded,
      analysis::umax_messages_per_hour(
          static_cast<std::int64_t>(net.tree().size()),
          static_cast<std::int64_t>(topo.link_count()),
          static_cast<std::int64_t>(net.tree().internal_node_count()), ehr));
}

TEST(AccountingRegression, BroadcastEhrOnLoneRootIsZero) {
  net::Topology topo = line(1);
  NetworkConfig cfg;
  DirqNetwork net(topo, 0, cfg);
  EXPECT_EQ(net.broadcast_ehr(0, 100.0, 0), 0.0);
}

TEST(AccountingRegression, RecordedUmaxSeriesIsTheFloodedValue) {
  // The driver must record broadcast_ehr's return, never re-derive the
  // formula: reconstruct hour 0's topology from the seed and pin the
  // series head to the cost model applied to that exact tree.
  ExperimentConfig cfg;
  cfg.seed = 99;
  cfg.epochs = 40;
  cfg.keep_records = false;
  const ExperimentResults res = Experiment(cfg).run();
  ASSERT_FALSE(res.umax_per_hour.empty());
  ASSERT_FALSE(res.ehr_per_hour.empty());

  sim::Rng rng(cfg.seed);
  net::Topology topo = net::random_connected(cfg.placement, rng);
  const net::SpanningTree tree(topo, 0);
  EXPECT_DOUBLE_EQ(
      res.umax_per_hour.front(),
      analysis::umax_messages_per_hour(
          static_cast<std::int64_t>(tree.size()),
          static_cast<std::int64_t>(topo.link_count()),
          static_cast<std::int64_t>(tree.internal_node_count()),
          res.ehr_per_hour.front()));
}

}  // namespace
}  // namespace dirq::core
