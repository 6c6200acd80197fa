// Experiment driver: short end-to-end runs of the paper's §7 setup.
// The full 20 000-epoch figure runs live in bench/; these tests keep the
// invariants under CI-scale budgets (2 000-4 000 epochs).
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "support/ledger_parity.hpp"

namespace dirq::core {
namespace {

ExperimentConfig short_cfg(std::int64_t epochs = 2000) {
  ExperimentConfig cfg;
  cfg.seed = 42;
  cfg.epochs = epochs;
  cfg.relevant_fraction = 0.4;
  cfg.network.mode = NetworkConfig::ThetaMode::Fixed;
  cfg.network.fixed_pct = 5.0;
  return cfg;
}

TEST(Experiment, RunsAndInjectsExpectedQueryCount) {
  ExperimentResults res = Experiment(short_cfg()).run();
  // Queries every 20 epochs, starting at epoch 20: 2000/20 - 1 = 99.
  EXPECT_EQ(res.queries, 99);
  EXPECT_EQ(res.records.size(), 99u);
  EXPECT_GT(res.updates_transmitted, 0);
  EXPECT_GT(res.flooding_total, 0);
}

TEST(Experiment, CostRatioIsNaNWhenNoQueriesRan) {
  // A run shorter than one query period injects nothing, so there is no
  // flooding baseline to compare against. The ratio must be explicitly
  // not-a-number — a silent 0.0 would read as "DirQ was free" to any
  // sweep aggregation averaging ratios across cells.
  ExperimentConfig cfg = short_cfg(/*epochs=*/10);
  ASSERT_GT(cfg.query_period, cfg.epochs);
  ExperimentResults res = Experiment(cfg).run();
  EXPECT_EQ(res.queries, 0);
  EXPECT_EQ(res.flooding_total, 0);
  EXPECT_TRUE(std::isnan(res.cost_ratio()));
  // The normal path is unaffected: any run with queries has a finite ratio.
  EXPECT_TRUE(std::isfinite(Experiment(short_cfg(100)).run().cost_ratio()));
}

TEST(Experiment, BurstModeGatesQueryArrivals) {
  // 2000 epochs, query period 20, bursts of 200 epochs with 600-epoch
  // gaps: the cycle is 800 epochs and queries land only at period
  // multiples whose cycle phase is < 200, i.e. phases {0, 20, ..., 180}.
  // Cycle 1 (epochs 0-799) skips phase 0 (epoch 0 never injects): 9.
  // Cycles 2 and 3 (starting at 800 and 1600) contribute 10 each.
  ExperimentConfig cfg = short_cfg();
  cfg.burst_length_epochs = 200;
  cfg.burst_gap_epochs = 600;
  ExperimentResults res = Experiment(cfg).run();
  EXPECT_EQ(res.queries, 9 + 10 + 10);
  // The rate predictor saw a non-smooth stream; the run still audits
  // every query it injected.
  EXPECT_EQ(res.records.size(), static_cast<std::size_t>(res.queries));
  EXPECT_GT(res.flooding_total, 0);
}

TEST(Experiment, BurstModeIsDeterministicAndDefaultsToSmooth) {
  ExperimentConfig cfg = short_cfg();
  cfg.burst_length_epochs = 100;
  cfg.burst_gap_epochs = 300;
  ExperimentResults a = Experiment(cfg).run();
  ExperimentResults b = Experiment(cfg).run();
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.ledger.total(), b.ledger.total());
  // Defaults keep the paper's smooth stream: same count as the plain run.
  EXPECT_EQ(Experiment(short_cfg()).run().queries, 99);
}

TEST(Experiment, BurstModeAuditsEveryLmacQueryOnTheUniformWindow) {
  // LMAC queries disseminate asynchronously and are audited at the next
  // query-period boundary. That boundary must arrive on schedule even
  // inside a burst gap — the last query of a burst must not stay pending
  // until the next burst (it would get a gap-long dissemination window
  // instead of the uniform query_period frames).
  ExperimentConfig cfg = short_cfg(/*epochs=*/400);
  cfg.placement.node_count = 20;
  cfg.transport = TransportKind::Lmac;
  cfg.burst_length_epochs = 100;
  cfg.burst_gap_epochs = 100;
  ExperimentResults res = Experiment(cfg).run();
  // Cycle 200, phases {0,20,...,80} inject: cycle 1 skips epoch 0 (4),
  // cycle 2 contributes 5.
  EXPECT_EQ(res.queries, 4 + 5);
  EXPECT_EQ(res.records.size(), 9u);
  // Every audited query saw a bounded window: with the uniform window the
  // run is deterministic and each record carries a delivery audit.
  ExperimentResults res2 = Experiment(cfg).run();
  EXPECT_EQ(res.ledger.total(), res2.ledger.total());
  EXPECT_DOUBLE_EQ(res.coverage_pct.mean(), res2.coverage_pct.mean());
}

TEST(Experiment, BurstConfigValidation) {
  ExperimentConfig cfg = short_cfg();
  cfg.burst_length_epochs = -1;
  EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument);
  cfg.burst_length_epochs = 0;
  cfg.burst_gap_epochs = 100;  // gap without bursts is meaningless
  EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument);
  cfg.burst_length_epochs = 100;
  cfg.burst_gap_epochs = -5;
  EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument);
}

TEST(Experiment, DeterministicAcrossRuns) {
  ExperimentResults a = Experiment(short_cfg()).run();
  ExperimentResults b = Experiment(short_cfg()).run();
  EXPECT_EQ(a.updates_transmitted, b.updates_transmitted);
  EXPECT_EQ(a.ledger.total(), b.ledger.total());
  EXPECT_DOUBLE_EQ(a.overshoot_pct.mean(), b.overshoot_pct.mean());
}

TEST(Experiment, SeedsChangeOutcomes) {
  ExperimentConfig cfg = short_cfg();
  cfg.seed = 1;
  ExperimentResults a = Experiment(cfg).run();
  cfg.seed = 2;
  ExperimentResults b = Experiment(cfg).run();
  EXPECT_NE(a.updates_transmitted, b.updates_transmitted);
}

TEST(Experiment, QueriesNeverMissTrueSources) {
  // Coverage invariant: every node whose reading matches is reached
  // (ranges are theta-conservative, so DirQ overshoots but does not skip
  // settled sources). Allow a tiny slack for same-epoch transitions.
  ExperimentResults res = Experiment(short_cfg()).run();
  EXPECT_GT(res.coverage_pct.mean(), 97.0);
}

TEST(Experiment, OvershootGrowsWithTheta) {
  ExperimentConfig cfg = short_cfg();
  cfg.network.fixed_pct = 3.0;
  const double small = Experiment(cfg).run().overshoot_pct.mean();
  cfg.network.fixed_pct = 9.0;
  const double large = Experiment(cfg).run().overshoot_pct.mean();
  EXPECT_GT(large, small);
}

TEST(Experiment, UpdateTrafficShrinksWithTheta) {
  ExperimentConfig cfg = short_cfg();
  cfg.network.fixed_pct = 3.0;
  const std::int64_t small = Experiment(cfg).run().updates_transmitted;
  cfg.network.fixed_pct = 9.0;
  const std::int64_t large = Experiment(cfg).run().updates_transmitted;
  EXPECT_LT(large, small);
}

TEST(Experiment, AtcKeepsDirqBelowFloodingWhereFixedThetaCannot) {
  // Paper §7.2: "The main drawback of using a fixed threshold is that
  // there is a possibility that the cost of the directed dissemination
  // scheme may exceed the cost of flooding." ATC exists to prevent that.
  ExperimentConfig cfg = short_cfg(6000);
  cfg.network.mode = NetworkConfig::ThetaMode::Fixed;
  cfg.network.fixed_pct = 3.0;
  const double fixed_ratio = Experiment(cfg).run().cost_ratio();

  cfg.network.mode = NetworkConfig::ThetaMode::Atc;
  const double atc_ratio = Experiment(cfg).run().cost_ratio();

  EXPECT_LT(atc_ratio, 1.0);
  EXPECT_LT(atc_ratio, fixed_ratio);
  EXPECT_GT(atc_ratio, 0.0);
}

TEST(Experiment, AtcModeRuns) {
  ExperimentConfig cfg = short_cfg(4000);
  cfg.network.mode = NetworkConfig::ThetaMode::Atc;
  ExperimentResults res = Experiment(cfg).run();
  EXPECT_GT(res.queries, 0);
  EXPECT_GT(res.updates_transmitted, 0);
  EXPECT_LT(res.cost_ratio(), 1.0);
  // Theta trace exists and moved away from the initial value at least once.
  ASSERT_FALSE(res.theta_pct_series.empty());
}

TEST(Experiment, ReceivePctTracksShouldPct) {
  ExperimentResults res = Experiment(short_cfg()).run();
  // Directed dissemination: receive >= should (conservative ranges) but
  // far below 100% of the network for a 40% target.
  EXPECT_GE(res.receive_pct.mean(), res.should_pct.mean() - 1.0);
  EXPECT_LT(res.receive_pct.mean(), 90.0);
  EXPECT_NEAR(res.should_pct.mean(), 40.0, 8.0);
}

TEST(Experiment, UmaxRecordedHourly) {
  ExperimentConfig cfg = short_cfg(2000);  // < 1 hour: only hour 0
  ExperimentResults res = Experiment(cfg).run();
  ASSERT_EQ(res.umax_per_hour.size(), 1u);
  EXPECT_GT(res.umax_per_hour[0], 0.0);
  ASSERT_EQ(res.ehr_per_hour.size(), 1u);
  // Hour-0 prior: one query per 20 epochs = 180/hour.
  EXPECT_DOUBLE_EQ(res.ehr_per_hour[0], 180.0);
}

TEST(Experiment, UpdateSeriesBinsCoverRun) {
  ExperimentConfig cfg = short_cfg();
  ExperimentResults res = Experiment(cfg).run();
  // Bins are 100 epochs wide: epoch 99 lands in bin 0, epoch 100 in bin 1.
  sim::TimeSeries probe = res.updates_per_bin;
  probe.record(99, 1000.0);
  probe.record(100, 1000.0);
  EXPECT_EQ(probe.bin(0), res.updates_per_bin.bin(0) + 1000.0);
  EXPECT_EQ(probe.bin(1), res.updates_per_bin.bin(1) + 1000.0);
  EXPECT_LE(res.updates_per_bin.bin_count(), 21u);
  EXPECT_EQ(static_cast<std::int64_t>(res.updates_per_bin.total()),
            res.updates_transmitted);
}

TEST(Experiment, RecordsCanBeDisabled) {
  ExperimentConfig cfg = short_cfg();
  cfg.keep_records = false;
  ExperimentResults res = Experiment(cfg).run();
  EXPECT_TRUE(res.records.empty());
  EXPECT_EQ(res.queries, 99);
}

TEST(Experiment, SourcePctBelowShouldPct) {
  // Sources are a subset of the involved set (forwarders included).
  ExperimentResults res = Experiment(short_cfg()).run();
  EXPECT_LE(res.source_pct.mean(), res.should_pct.mean() + 1e-9);
}

TEST(Experiment, ConfigValidationRejectsDivisionByZeroKnobs) {
  // run() divides by query_period and modulos by epochs_per_hour and
  // series_bin; zero or negative values must be rejected up front instead
  // of hitting integer-division UB mid-run.
  {
    ExperimentConfig cfg = short_cfg();
    cfg.query_period = 0;
    EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument);
  }
  {
    ExperimentConfig cfg = short_cfg();
    cfg.query_period = -20;
    EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument);
  }
  {
    ExperimentConfig cfg = short_cfg();
    cfg.epochs_per_hour = 0;
    EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument);
  }
  {
    ExperimentConfig cfg = short_cfg();
    cfg.series_bin = -1;
    EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument);
  }
  {
    ExperimentConfig cfg = short_cfg();
    cfg.epochs = -1;
    EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument);
  }
}

TEST(Experiment, RejectsAtcConfigsTheControllerCannotRun) {
  // Each of these used to run to completion: an empty clamp range is UB
  // inside theta(), a zero rate window steers on inf/NaN rates, and a zero
  // initial theta ends the theta series in NaN. The controller rejects
  // them when the network builds it, so every driver fails loud.
  const auto atc_cfg = [] {
    ExperimentConfig cfg = short_cfg(/*epochs=*/200);
    cfg.network.mode = NetworkConfig::ThetaMode::Atc;
    return cfg;
  };
  {
    ExperimentConfig cfg = atc_cfg();
    cfg.network.atc.min_pct = 13.0;
    cfg.network.atc.max_pct = 12.0;
    EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument);
  }
  {
    ExperimentConfig cfg = atc_cfg();
    cfg.network.atc.rate_window_epochs = 0;
    EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument);
  }
  {
    ExperimentConfig cfg = atc_cfg();
    cfg.network.atc.initial_pct = 0.0;
    EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument);
  }
  EXPECT_NO_THROW(Experiment(atc_cfg()).run());
}

TEST(Experiment, RejectsFixedThetaAndGateConfigsTheNodesCannotRun) {
  // At 50 nodes a fixed_pct of -5 used to run to the end with 19 %
  // coverage, NaN gave 0 % coverage and inf 83 % overshoot, and an enabled
  // gate with max_interval 0 never skipped a sample. The network builds
  // each node's controller and gate, so every driver fails loud.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {-5.0, nan, inf}) {
    ExperimentConfig cfg = short_cfg(/*epochs=*/200);
    cfg.network.fixed_pct = bad;
    EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument) << bad;
  }
  const auto gated_cfg = [] {
    ExperimentConfig cfg = short_cfg(/*epochs=*/200);
    cfg.network.sampling.enabled = true;
    return cfg;
  };
  for (int bad : {0, -3}) {
    ExperimentConfig cfg = gated_cfg();
    cfg.network.sampling.max_interval = bad;
    EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument) << bad;
  }
  {
    ExperimentConfig cfg = gated_cfg();
    cfg.network.sampling.margin_frac = nan;
    EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument);
  }
  // Theta 0 and margin 0 stay valid.
  ExperimentConfig edge = gated_cfg();
  edge.network.fixed_pct = 0.0;
  edge.network.sampling.margin_frac = 0.0;
  EXPECT_NO_THROW(Experiment(edge).run());
}

TEST(Experiment, ConfigValidationRejectsBadRatesAndLmacGeometry) {
  {
    ExperimentConfig cfg = short_cfg();
    cfg.loss_rate = 1.0;
    EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument);
  }
  {
    ExperimentConfig cfg = short_cfg();
    cfg.relevant_fraction = 0.0;
    EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument);
  }
  {
    ExperimentConfig cfg = short_cfg();
    cfg.transport = TransportKind::Lmac;
    cfg.lmac.slots_per_frame = 0;
    EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument);
  }
  {
    ExperimentConfig cfg = short_cfg();
    cfg.transport = TransportKind::Lmac;
    cfg.lmac.slots_per_frame = 65;  // > the occupied-view bitmask width
    EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument);
  }
  {
    ExperimentConfig cfg = short_cfg();
    cfg.transport = TransportKind::Lmac;
    cfg.lmac.ticks_per_slot = 0;
    EXPECT_THROW(Experiment(cfg).run(), std::invalid_argument);
  }
}

ExperimentConfig lmac_cfg(std::int64_t epochs = 800) {
  ExperimentConfig cfg = short_cfg(epochs);
  cfg.transport = TransportKind::Lmac;
  return cfg;
}

TEST(Experiment, LmacBackendRunsAndInjectsExpectedQueryCount) {
  ExperimentResults res = Experiment(lmac_cfg()).run();
  EXPECT_EQ(res.queries, 800 / 20 - 1);
  EXPECT_EQ(res.records.size(), static_cast<std::size_t>(res.queries));
  EXPECT_GT(res.updates_transmitted, 0);
  EXPECT_GT(res.flooding_total, 0);
  // Slot-synchronous delivery lags instant by at most the tree depth in
  // frames; with 20 frames between queries coverage stays near-complete.
  EXPECT_GT(res.coverage_pct.mean(), 95.0);
}

TEST(Experiment, LmacBackendDeterministicAcrossRuns) {
  ExperimentResults a = Experiment(lmac_cfg()).run();
  ExperimentResults b = Experiment(lmac_cfg()).run();
  EXPECT_EQ(a.updates_transmitted, b.updates_transmitted);
  EXPECT_EQ(a.ledger.total(), b.ledger.total());
  EXPECT_EQ(a.node_tx, b.node_tx);
  EXPECT_EQ(a.node_rx, b.node_rx);
  EXPECT_DOUBLE_EQ(a.overshoot_pct.mean(), b.overshoot_pct.mean());
  EXPECT_DOUBLE_EQ(a.coverage_pct.mean(), b.coverage_pct.mean());
}

TEST(Experiment, LmacLedgerReconcilesWithPerNodeEnergy) {
  // Cost parity across backends: the LMAC ledger (bootstrap carry-over
  // included) must attribute to per-node counters exactly the way the
  // instant transport already does.
  expect_ledger_reconciles(Experiment(lmac_cfg()).run());
  expect_ledger_reconciles(Experiment(short_cfg()).run());
}

TEST(Experiment, LmacComposesWithChannelLoss) {
  ExperimentConfig clean = lmac_cfg();
  ExperimentConfig noisy = lmac_cfg();
  noisy.loss_rate = 0.25;
  const ExperimentResults a = Experiment(clean).run();
  const ExperimentResults b = Experiment(noisy).run();
  // CRC loss on the MAC backend: coverage degrades, the deployment (and
  // hence the flooding baseline) is unchanged, and the drop-hook keeps the
  // per-node rx attribution reconciled with the ledger.
  EXPECT_LT(b.coverage_pct.mean(), a.coverage_pct.mean());
  EXPECT_EQ(a.flooding_total, b.flooding_total);
  expect_ledger_reconciles(b);
}

TEST(Experiment, LmacDrainAuditsFinalQueryWhenEpochsNotAMultipleOfPeriod) {
  // With epochs = 310 the last query is injected at epoch 300 and the
  // epoch loop ends 10 frames later — the post-loop drain must run the
  // remaining 10 frames (the live scheduling path) so the final query
  // gets the same 20-frame window as every other one.
  ExperimentConfig cfg = lmac_cfg(310);
  const ExperimentResults res = Experiment(cfg).run();
  EXPECT_EQ(res.queries, 310 / 20);  // epochs 20, 40, ..., 300
  ASSERT_FALSE(res.records.empty());
  EXPECT_EQ(res.records.back().epoch, 300);
  expect_ledger_reconciles(res);
  // Determinism holds through the drain frames too.
  const ExperimentResults again = Experiment(cfg).run();
  EXPECT_EQ(res.ledger.total(), again.ledger.total());
  EXPECT_EQ(res.node_rx, again.node_rx);
}

TEST(Experiment, FastFieldBackendRunsDeterministically) {
  // The fast backend is a different deterministic dataset: the protocol
  // must behave sanely on it (every query injected, sources never missed
  // thanks to conservative ranges) and two runs must agree bit-for-bit.
  ExperimentConfig cfg;
  cfg.epochs = 600;
  cfg.network.mode = NetworkConfig::ThetaMode::Fixed;
  cfg.network.fixed_pct = 5.0;
  cfg.field_backend = data::EnvironmentBackend::Fast;
  cfg.keep_records = true;
  const ExperimentResults a = Experiment(cfg).run();
  const ExperimentResults b = Experiment(cfg).run();
  EXPECT_EQ(a.queries, 600 / 20 - 1);
  EXPECT_GT(a.updates_transmitted, 0);
  EXPECT_GT(a.coverage_pct.mean(), 97.0);  // lossless: sources reached
  EXPECT_EQ(a.ledger.total(), b.ledger.total());
  EXPECT_EQ(a.updates_transmitted, b.updates_transmitted);
  EXPECT_EQ(a.node_tx, b.node_tx);
}

TEST(Experiment, FastAndPinnedBackendsDiverge) {
  // Same seed, different noise processes: the runs must not coincide —
  // if they did, the seam would not actually be switching backends.
  ExperimentConfig cfg;
  cfg.epochs = 400;
  cfg.network.mode = NetworkConfig::ThetaMode::Fixed;
  cfg.network.fixed_pct = 5.0;
  const ExperimentResults pinned = Experiment(cfg).run();
  cfg.field_backend = data::EnvironmentBackend::Fast;
  const ExperimentResults fast = Experiment(cfg).run();
  EXPECT_EQ(pinned.queries, fast.queries);  // same schedule either way
  EXPECT_TRUE(pinned.updates_transmitted != fast.updates_transmitted ||
              pinned.node_tx != fast.node_tx);
}

TEST(Experiment, MacControlTotalZeroOnInstantPositiveOnLmac) {
  ExperimentConfig cfg;
  cfg.epochs = 200;
  cfg.network.mode = NetworkConfig::ThetaMode::Fixed;
  cfg.network.fixed_pct = 5.0;
  const ExperimentResults instant = Experiment(cfg).run();
  EXPECT_EQ(instant.mac_control_total, 0);
  cfg.transport = TransportKind::Lmac;
  const ExperimentResults lmac = Experiment(cfg).run();
  // The TDMA schedule beacons every frame regardless of DirQ traffic.
  EXPECT_GT(lmac.mac_control_total, 0);
}

TEST(Experiment, LmacFrameGeometryIsConfigurable) {
  // A shorter frame (16 slots x 8 ticks) still hosts one epoch per frame;
  // the run completes and stays deterministic.
  ExperimentConfig cfg = lmac_cfg(400);
  cfg.lmac.slots_per_frame = 16;
  cfg.lmac.ticks_per_slot = 8;
  const ExperimentResults a = Experiment(cfg).run();
  const ExperimentResults b = Experiment(cfg).run();
  EXPECT_EQ(a.queries, 400 / 20 - 1);
  EXPECT_EQ(a.ledger.total(), b.ledger.total());
  expect_ledger_reconciles(a);
}

}  // namespace
}  // namespace dirq::core
