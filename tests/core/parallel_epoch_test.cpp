// Intra-run parallelism determinism tier: an N-thread run must produce a
// byte-identical ExperimentResults summary to the 1-thread run. Every
// width runs the same epoch plan — one chunk at 1 thread and on LMAC,
// shards of the walk above it on the instant transport — and goldens are
// only ever recorded against --threads 1, so this is the contract that
// makes the wider plans safe to enable at all. The oracle for every width,
// 1 included, is the reference walk (tests/support/reference_walk.hpp,
// checked epoch by epoch in parallel_reference_walk_test.cpp). Every
// backend honours the requested width.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "data/field_model.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"
#include "sweep/sink.hpp"

namespace dirq::core {
namespace {

constexpr SensorType kT = kSensorTemperature;

ExperimentConfig small_cfg() {
  ExperimentConfig cfg;
  cfg.epochs = 400;        // 20 queries at the default period
  cfg.epochs_per_hour = 100;  // 4 EHr broadcasts interleaved with the epochs
  cfg.seed = 1234;
  return cfg;
}

std::string run_summary(ExperimentConfig cfg, unsigned threads) {
  cfg.threads = threads;
  Experiment exp(cfg);
  return sweep::summarize(exp.run());
}

TEST(ParallelEpoch, PinnedBackendSummariesByteIdentical) {
  const ExperimentConfig cfg = small_cfg();
  const std::string seq = run_summary(cfg, 1);
  EXPECT_EQ(seq, run_summary(cfg, 4));
  EXPECT_EQ(seq, run_summary(cfg, 0));  // all hardware threads
}

TEST(ParallelEpoch, FastBackendSummariesByteIdentical) {
  ExperimentConfig cfg = small_cfg();
  cfg.field_backend = data::EnvironmentBackend::Fast;
  EXPECT_EQ(run_summary(cfg, 1), run_summary(cfg, 4));
}

TEST(ParallelEpoch, AtcThetaSummariesByteIdentical) {
  ExperimentConfig cfg = small_cfg();
  cfg.network.mode = NetworkConfig::ThetaMode::Atc;
  EXPECT_EQ(run_summary(cfg, 1), run_summary(cfg, 4));
}

TEST(ParallelEpoch, SamplingSuppressionSummariesByteIdentical) {
  // The gated walk is the trickiest parallel surface: the engine mirrors
  // each node's next_due gate into per-shard slots and must keep them in
  // lock-step with the sequential controllers.
  ExperimentConfig cfg = small_cfg();
  cfg.network.sampling.enabled = true;
  EXPECT_EQ(run_summary(cfg, 1), run_summary(cfg, 4));
}

TEST(ParallelEpoch, EffectiveThreadsHonoursEveryBackend) {
  // Historically LMAC and lossy runs clamped to one thread; counter-mode
  // drop decisions and LMAC's pool-parallel fetch removed both clamps.
  ExperimentConfig cfg;
  cfg.threads = 4;
  EXPECT_EQ(Experiment::effective_threads(cfg), 4u);
  cfg.transport = TransportKind::Lmac;
  EXPECT_EQ(Experiment::effective_threads(cfg), 4u);
  cfg.transport = TransportKind::Instant;
  cfg.loss_rate = 0.1;
  EXPECT_EQ(Experiment::effective_threads(cfg), 4u);
  cfg.loss_rate = 0.0;
  cfg.threads = 0;
  EXPECT_GE(Experiment::effective_threads(cfg), 1u);
}

/// Cross shape: root 0 at the origin, three 3-node arms (+x, -x, +y).
/// Three root children -> three shards; every non-root node senses kT.
net::Topology cross_topology() {
  std::vector<net::Node> nodes(10);
  const double xs[] = {0, 1, 2, 3, -1, -2, -3, 0, 0, 0};
  const double ys[] = {0, 0, 0, 0, 0, 0, 0, 1, 2, 3};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].x = xs[i];
    nodes[i].y = ys[i];
    if (i > 0) nodes[i].sensors = {kT};
  }
  return net::Topology(std::move(nodes), 1.1);
}

void expect_networks_identical(DirqNetwork& a, DirqNetwork& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.costs().query_tx, b.costs().query_tx);
  EXPECT_EQ(a.costs().query_rx, b.costs().query_rx);
  EXPECT_EQ(a.costs().update_tx, b.costs().update_tx);
  EXPECT_EQ(a.costs().update_rx, b.costs().update_rx);
  EXPECT_EQ(a.costs().control_tx, b.costs().control_tx);
  EXPECT_EQ(a.costs().control_rx, b.costs().control_rx);
  EXPECT_EQ(a.updates_transmitted(), b.updates_transmitted());
  EXPECT_EQ(a.samples_taken(), b.samples_taken());
  for (NodeId u = 0; u < a.size(); ++u) {
    EXPECT_EQ(a.node_tx(u), b.node_tx(u)) << "node " << u;
    EXPECT_EQ(a.node_rx(u), b.node_rx(u)) << "node " << u;
  }
  EXPECT_DOUBLE_EQ(a.mean_theta_pct(kT), b.mean_theta_pct(kT));
}

TEST(ParallelEpoch, ChurnInvalidatesPlanAndMatchesSequentialTwin) {
  NetworkConfig ncfg;
  ncfg.mode = NetworkConfig::ThetaMode::Fixed;
  ncfg.fixed_pct = 5.0;

  net::Topology topo_seq = cross_topology();
  net::Topology topo_par = cross_topology();
  data::Environment env_seq(topo_seq, /*sensor_type_count=*/1, sim::Rng(9));
  data::Environment env_par(topo_par, /*sensor_type_count=*/1, sim::Rng(9));
  DirqNetwork seq(topo_seq, 0, ncfg);
  DirqNetwork par(topo_par, 0, ncfg);
  par.set_threads(4);
  EXPECT_EQ(par.threads(), 4u);
  EXPECT_EQ(seq.threads(), 1u);

  const auto step = [&](std::int64_t epoch) {
    env_seq.advance_to(epoch);
    env_par.advance_to(epoch);
    seq.process_epoch(env_seq, epoch);
    par.process_epoch(env_par, epoch);
  };
  const auto churn = [&](auto&& fn) {
    fn(topo_seq, seq);
    fn(topo_par, par);
  };

  std::int64_t epoch = 0;
  for (; epoch < 10; ++epoch) step(epoch);

  // Mid-arm death: node 3 detaches, the tree shrinks, the cached shard
  // plan must be rebuilt (a stale plan would walk a dead node and throw).
  churn([&](net::Topology& t, DirqNetwork& n) {
    t.kill_node(2);
    n.handle_node_death(2, 10);
  });
  for (; epoch < 20; ++epoch) step(epoch);

  // Addition at the +y arm's tip: a fresh protocol instance plus counter
  // arrays that must stay aligned across both paths.
  churn([&](net::Topology& t, DirqNetwork& n) {
    net::Node newcomer;
    newcomer.x = 0.0;
    newcomer.y = 4.0;
    newcomer.sensors = {kT};
    const NodeId id = t.add_node(newcomer);
    n.handle_node_addition(id, 20);
  });
  for (; epoch < 30; ++epoch) step(epoch);

  expect_networks_identical(seq, par);
}

TEST(ParallelEpoch, CustomSynchronousTransportRunsTheOneChunkPlan) {
  // A synchronous transport other than the built-in instant one delivers
  // inside the walk through its own path, so at any width the engine runs
  // the one-chunk plan on the caller; swapping transports mid-run (and
  // back) rebuilds the plan each time.
  NetworkConfig ncfg;
  ncfg.mode = NetworkConfig::ThetaMode::Atc;
  ncfg.atc.initial_pct = ncfg.atc.min_pct;  // narrow: updates every epoch

  net::Topology topo_seq = cross_topology();
  net::Topology topo_par = cross_topology();
  data::Environment env_seq(topo_seq, /*sensor_type_count=*/1, sim::Rng(5));
  data::Environment env_par(topo_par, /*sensor_type_count=*/1, sim::Rng(5));
  DirqNetwork seq(topo_seq, 0, ncfg);
  DirqNetwork par(topo_par, 0, ncfg);
  par.set_threads(4);
  Transport& builtin_seq = seq.transport();
  Transport& builtin_par = par.transport();
  InstantTransport custom_seq(topo_seq, seq);
  InstantTransport custom_par(topo_par, par);

  for (std::int64_t epoch = 0; epoch < 30; ++epoch) {
    if (epoch == 10) {
      seq.use_transport(custom_seq);
      par.use_transport(custom_par);
    } else if (epoch == 20) {
      EXPECT_GT(custom_par.costs().update_tx, 0);
      EXPECT_EQ(custom_par.costs().update_tx, custom_seq.costs().update_tx);
      EXPECT_EQ(custom_par.costs().update_rx, custom_seq.costs().update_rx);
      seq.use_transport(builtin_seq);
      par.use_transport(builtin_par);
    }
    env_seq.advance_to(epoch);
    env_par.advance_to(epoch);
    seq.process_epoch(env_seq, epoch);
    par.process_epoch(env_par, epoch);
  }
  expect_networks_identical(seq, par);
}

}  // namespace
}  // namespace dirq::core
