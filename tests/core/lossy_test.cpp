// Failure injection: DirQ under message loss (a LossChannel installed
// with DirqNetwork::set_loss). The protocol must degrade gracefully — no
// crashes, no corrupted state, coverage falling with the loss rate and
// healing once the channel recovers — and every dropped frame's rx must
// stay reconciled between the ledger and the per-node attribution.
#include "core/lossy.hpp"

#include <gtest/gtest.h>

#include "core/network.hpp"
#include "metrics/audit.hpp"
#include "data/field_model.hpp"
#include "net/placement.hpp"
#include "query/workload.hpp"
#include "sim/counter_rng.hpp"
#include "sim/rng.hpp"

namespace dirq::core {
namespace {

struct LossyWorld {
  net::Topology topo;
  data::Environment env;
  DirqNetwork net;
  LossChannel loss;

  LossyWorld(std::uint64_t seed, double drop)
      : topo(make(seed)),
        env(topo, 4, sim::Rng(seed).substream("env")),
        net(topo, 0, cfg()),
        loss(drop, sim::CounterRng(seed).substream("loss")) {
    net.set_loss(&loss);
  }
  static net::Topology make(std::uint64_t seed) {
    sim::Rng rng(seed);
    return net::random_connected(net::RandomPlacementConfig{}, rng);
  }
  static NetworkConfig cfg() {
    NetworkConfig c;
    c.fixed_pct = 5.0;
    return c;
  }
  void run(std::int64_t from, std::int64_t to) {
    for (std::int64_t e = from; e < to; ++e) {
      env.advance_to(e);
      net.process_epoch(env, e);
    }
  }
  double mean_coverage(std::int64_t epoch, int queries, std::uint64_t wl_seed) {
    query::WorkloadGenerator gen(topo, net.tree(), env,
                                 query::WorkloadConfig{0.4, 0.02},
                                 sim::Rng(wl_seed));
    sim::RunningStat cov;
    for (int i = 0; i < queries; ++i) {
      const query::RangeQuery q = gen.next(epoch);
      const query::Involvement truth =
          query::compute_involvement(q, topo, net.tree(), env);
      const QueryOutcome out = net.inject(0, q, epoch);
      cov.push(metrics::audit_query(truth.involved, out.received).coverage_pct());
    }
    return cov.mean();
  }
};

TEST(LossChannel, DropsAtConfiguredRate) {
  LossChannel channel(0.3, sim::CounterRng(1));
  for (int i = 0; i < 10000; ++i) channel.note(channel.next_drop(0, 1, 0));
  EXPECT_EQ(channel.offered(), 10000);
  EXPECT_NEAR(static_cast<double>(channel.dropped()) / 10000.0, 0.3, 0.02);
}

TEST(LossChannel, ZeroLossIsTransparent) {
  LossyWorld w(3, 0.0);
  w.run(0, 50);
  EXPECT_EQ(w.loss.dropped(), 0);
  EXPECT_GT(w.loss.offered(), 0);
  EXPECT_GT(w.mean_coverage(50, 20, 99), 99.0);
}

TEST(LossyProtocol, SurvivesHeavyLossWithoutCrashing) {
  LossyWorld w(3, 0.5);
  w.run(0, 300);
  // Half of everything vanishes; per-hop delivery compounds down the tree
  // (~0.5^depth), so absolute coverage is low — the assertion is that the
  // protocol still routes *something* and the state machine stays sane.
  const double cov = w.mean_coverage(300, 20, 99);
  EXPECT_GT(cov, 2.0);
  EXPECT_LE(cov, 100.0);
}

TEST(LossyProtocol, CoverageDegradesMonotonically) {
  double prev = 101.0;
  for (double drop : {0.0, 0.2, 0.6}) {
    LossyWorld w(7, drop);
    w.run(0, 200);
    const double cov = w.mean_coverage(200, 30, 42);
    EXPECT_LT(cov, prev + 5.0) << "drop " << drop;  // allow small noise
    prev = cov;
  }
}

TEST(LossyProtocol, StaleRangesHealAfterChannelRecovers) {
  // Run lossy, then give the protocol a clean channel: coverage returns to
  // the loss-free level because re-centred tuples re-trigger updates.
  net::Topology topo = LossyWorld::make(11);
  data::Environment env(topo, 4, sim::Rng(11).substream("env"));
  DirqNetwork net(topo, 0, LossyWorld::cfg());
  LossChannel loss(0.5, sim::CounterRng(11).substream("loss"));

  net.set_loss(&loss);
  for (std::int64_t e = 0; e < 200; ++e) {
    env.advance_to(e);
    net.process_epoch(env, e);
  }
  ASSERT_GT(loss.dropped(), 0);
  net.set_loss(nullptr);
  const std::int64_t offered = loss.offered();
  // The environment keeps drifting; within a few hundred epochs every
  // subtree whose aggregate moved re-announces over the clean channel.
  for (std::int64_t e = 200; e < 1200; ++e) {
    env.advance_to(e);
    net.process_epoch(env, e);
  }
  query::WorkloadGenerator gen(topo, net.tree(), env,
                               query::WorkloadConfig{0.4, 0.02},
                               sim::Rng(5));
  sim::RunningStat cov;
  for (int i = 0; i < 30; ++i) {
    const query::RangeQuery q = gen.next(1200);
    const query::Involvement truth =
        query::compute_involvement(q, topo, net.tree(), env);
    const QueryOutcome out = net.inject(0, q, 1200);
    cov.push(metrics::audit_query(truth.involved, out.received).coverage_pct());
  }
  EXPECT_GT(cov.mean(), 90.0);
  EXPECT_EQ(loss.offered(), offered);  // the cleared channel saw nothing
}

TEST(LossyProtocol, DroppedRxReconcilesPerNodeAndTreeWithLedger) {
  // The ledger's rx is charged before the drop decision (CRC-failure
  // semantics); a dropped frame's rx must land in the per-node
  // distribution and the tree mirror too, so sum(node_rx) and the tree
  // ledger always equal the ledger — queries included.
  LossyWorld w(5, 0.3);
  w.run(0, 200);
  w.mean_coverage(200, 10, 3);
  ASSERT_GT(w.loss.dropped(), 0);
  CostUnits tx_sum = 0, rx_sum = 0;
  for (NodeId u = 0; u < w.net.size(); ++u) {
    tx_sum += w.net.node_tx(u);
    rx_sum += w.net.node_rx(u);
  }
  const CostLedger& l = w.net.costs();
  EXPECT_EQ(tx_sum, l.query_tx + l.update_tx + l.control_tx);
  EXPECT_EQ(rx_sum, l.query_rx + l.update_rx + l.control_rx);
  const CostLedger& tree = w.net.tree_ledger(0);
  EXPECT_EQ(tree.query_rx, l.query_rx);
  EXPECT_EQ(tree.update_rx, l.update_rx);
  EXPECT_EQ(tree.control_rx, l.control_rx);
  EXPECT_EQ(tree.total(), l.total());
}

TEST(LossyProtocol, DeterministicGivenSeed) {
  LossyWorld a(9, 0.3), b(9, 0.3);
  a.run(0, 100);
  b.run(0, 100);
  EXPECT_EQ(a.loss.dropped(), b.loss.dropped());
  EXPECT_EQ(a.net.updates_transmitted(), b.net.updates_transmitted());
}

}  // namespace
}  // namespace dirq::core
