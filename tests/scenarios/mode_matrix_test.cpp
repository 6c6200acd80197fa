// Mode scenario regression tier: the consume modes no other tier pins.
// Every other golden runs fixed theta 5 % with the sampling gate off, the
// one mode whose epochs go through the own-tuple crossing sweep. Here ATC
// (every reading feeds the controller; its end-of-epoch step moves theta)
// and the sampling gate (skipped samples, the next_due mirror) are held to
// exact goldens on the instant transport with and without loss, plus ATC
// over LMAC. Structural expectations: ATC never skips a sample, the gate
// always does, and the gate's decisions depend on readings and theta only,
// so loss leaves the gated sample counts untouched.
//
// The grid axes and per-cell config live in scenario_grid.hpp, shared with
// the `scenario_goldens` regenerator tool (tools/scenario_goldens.cpp).
// Exact golden values are libstdc++-specific (std::uniform_real_distribution
// et al. are implementation-defined); elsewhere the tier still runs with
// the structural + determinism assertions.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hpp"
#include "scenarios/scenario_grid.hpp"
#include "support/ledger_parity.hpp"
#include "sweep/sink.hpp"

namespace dirq::core {
namespace {

using scenarios::ModeKind;

struct ModeCase {
  std::uint64_t seed;
  std::size_t nodes;
  ModeKind mode;
  double loss;
  bool lmac;
  // Goldens (libstdc++, any optimisation level — integer exact):
  std::int64_t updates;
  std::int64_t dirq_total_cost;
  std::int64_t samples_taken;
  std::int64_t samples_skipped;
  double coverage_mean;
  double overshoot_mean;
};

constexpr std::int64_t kExpectedQueries =
    scenarios::kEpochs / scenarios::kQueryPeriod - 1;  // 59

// Regenerate with the `scenario_goldens` tool (mode tier block).
const std::vector<ModeCase>& cases() {
  static const std::vector<ModeCase> kCases = {
      {1, 30, ModeKind::Atc, 0.00, false, 1647, 4926, 80400, 0, 96.1522940336, 26.7194387533},
      {1, 30, ModeKind::Atc, 0.15, false, 1601, 4542, 80400, 0, 65.4525982492, 19.3918793071},
      {1, 30, ModeKind::Gated, 0.00, false, 1668, 5017, 6492, 73908, 96.7144719687, 29.7938784379},
      {1, 30, ModeKind::Gated, 0.15, false, 1500, 4388, 6492, 73908, 68.4525361644, 19.9335692556},
      {1, 50, ModeKind::Atc, 0.00, false, 2993, 8867, 133200, 0, 99.0072639225, 32.0893586885},
      {1, 50, ModeKind::Atc, 0.15, false, 2881, 7987, 133200, 0, 63.0060580540, 19.1940299936},
      {1, 50, ModeKind::Gated, 0.00, false, 2502, 7949, 10810, 122390, 99.1727199354, 35.1056730055},
      {1, 50, ModeKind::Gated, 0.15, false, 2237, 6724, 10810, 122390, 61.4395773718, 21.1179964717},
      {42, 30, ModeKind::Atc, 0.00, false, 1687, 5103, 82800, 0, 92.3558080338, 26.4062985038},
      {42, 30, ModeKind::Atc, 0.15, false, 1595, 4411, 82800, 0, 51.9608710499, 16.7827652573},
      {42, 30, ModeKind::Gated, 0.00, false, 1880, 5552, 6783, 76017, 96.0840007450, 26.4392034519},
      {42, 30, ModeKind::Gated, 0.15, false, 1633, 4558, 6783, 76017, 56.3387812752, 16.0493108586},
      {42, 50, ModeKind::Atc, 0.00, false, 3170, 9076, 154800, 0, 97.2672243011, 27.2295169826},
      {42, 50, ModeKind::Atc, 0.15, false, 3025, 8104, 154800, 0, 58.7022716905, 16.8144174666},
      {42, 50, ModeKind::Gated, 0.00, false, 2617, 8031, 12883, 141917, 97.2782302443, 30.2073583503},
      {42, 50, ModeKind::Gated, 0.15, false, 2361, 6780, 12883, 141917, 58.1796329438, 17.4388691633},
      {1, 30, ModeKind::Atc, 0.00, true, 1646, 4926, 80400, 0, 96.3934935121, 26.6790836282},
      {1, 30, ModeKind::Atc, 0.15, true, 1628, 4555, 80400, 0, 64.3201713541, 17.9049481592},
      {42, 30, ModeKind::Atc, 0.00, true, 1709, 5212, 82800, 0, 96.3556217794, 26.9818246725},
      {42, 30, ModeKind::Atc, 0.15, true, 1611, 4397, 82800, 0, 50.9105513131, 15.1250232818},
  };
  return kCases;
}

ExperimentConfig make_config(const ModeCase& c) {
  return scenarios::make_mode_config(c.seed, c.nodes, c.mode, c.loss, c.lmac);
}

/// Each cell is simulated once and shared by every assertion suite
/// (RerunIsBitIdentical proves determinism with a deliberate fresh run).
const ExperimentResults& cell_results(const ModeCase& c) {
  using Key = std::tuple<std::uint64_t, std::size_t, int, int, bool>;
  static std::map<Key, ExperimentResults> cache;
  const Key key{c.seed, c.nodes, static_cast<int>(c.mode),
                static_cast<int>(c.loss * 100), c.lmac};
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, Experiment(make_config(c)).run()).first;
  }
  return it->second;
}

TEST(ModeGrid, GoldenTableCoversExactlyTheSharedGrid) {
  std::size_t i = 0;
  scenarios::for_each_mode_cell([&i](std::uint64_t seed, std::size_t nodes,
                                     ModeKind mode, double loss, bool lmac) {
    ASSERT_LT(i, cases().size());
    EXPECT_EQ(cases()[i].seed, seed) << "row " << i;
    EXPECT_EQ(cases()[i].nodes, nodes) << "row " << i;
    EXPECT_EQ(cases()[i].mode, mode) << "row " << i;
    EXPECT_DOUBLE_EQ(cases()[i].loss, loss) << "row " << i;
    EXPECT_EQ(cases()[i].lmac, lmac) << "row " << i;
    ++i;
  });
  EXPECT_EQ(i, cases().size());
}

class ModeMatrix : public ::testing::TestWithParam<ModeCase> {};

TEST_P(ModeMatrix, StructuralInvariantsHold) {
  const ModeCase& c = GetParam();
  const ExperimentResults& res = cell_results(c);

  EXPECT_EQ(res.queries, kExpectedQueries);
  EXPECT_GT(res.updates_transmitted, 0);
  EXPECT_GT(res.ledger.total(), 0);
  EXPECT_GE(res.coverage_pct.mean(), 0.0);
  EXPECT_LE(res.coverage_pct.mean(), 100.0);
  EXPECT_GE(res.overshoot_pct.mean(), 0.0);
  EXPECT_GT(res.samples_taken, 0);
  if (c.mode == ModeKind::Atc) {
    EXPECT_EQ(res.samples_skipped, 0);  // no gate: every sensor, every epoch
  } else {
    EXPECT_GT(res.samples_skipped, 0);
  }
  expect_ledger_reconciles(res);
}

TEST_P(ModeMatrix, MetricsMatchGolden) {
#if !defined(__GLIBCXX__)
  GTEST_SKIP() << "golden values are recorded against libstdc++'s "
                  "distribution implementations";
#else
  const ModeCase& c = GetParam();
  const ExperimentResults& res = cell_results(c);

  EXPECT_EQ(res.updates_transmitted, c.updates);
  EXPECT_EQ(res.ledger.total(), c.dirq_total_cost);
  EXPECT_EQ(res.samples_taken, c.samples_taken);
  EXPECT_EQ(res.samples_skipped, c.samples_skipped);
  EXPECT_NEAR(res.coverage_pct.mean(), c.coverage_mean, 1e-6);
  EXPECT_NEAR(res.overshoot_pct.mean(), c.overshoot_mean, 1e-6);
#endif
}

std::string case_name(const ::testing::TestParamInfo<ModeCase>& info) {
  const ModeCase& c = info.param;
  return std::string(c.lmac ? "lmac_" : "") + "seed" +
         std::to_string(c.seed) + "_n" + std::to_string(c.nodes) +
         (c.mode == ModeKind::Atc ? "_atc" : "_gated") + "_loss" +
         std::to_string(static_cast<int>(c.loss * 100));
}

INSTANTIATE_TEST_SUITE_P(Grid, ModeMatrix, ::testing::ValuesIn(cases()),
                         case_name);

TEST(ModeMatrixCross, RerunIsBitIdentical) {
  const ModeCase& c = cases()[1];  // seed 1, 30 nodes, ATC, lossy
  const ExperimentResults& a = cell_results(c);
  const ExperimentResults b = Experiment(make_config(c)).run();
  EXPECT_EQ(sweep::summarize(a), sweep::summarize(b));
}

TEST(ModeMatrixCross, LossLeavesGatedSampleCountsUntouched) {
  for (std::size_t i = 0; i + 1 < cases().size(); ++i) {
    const ModeCase& clean = cases()[i];
    const ModeCase& lossy = cases()[i + 1];
    if (clean.lmac || clean.mode != ModeKind::Gated || clean.loss != 0.0) {
      continue;
    }
    ASSERT_EQ(clean.seed, lossy.seed);
    ASSERT_EQ(clean.nodes, lossy.nodes);
    ASSERT_GT(lossy.loss, 0.0);
    EXPECT_EQ(cell_results(clean).samples_taken,
              cell_results(lossy).samples_taken);
    EXPECT_EQ(cell_results(clean).samples_skipped,
              cell_results(lossy).samples_skipped);
  }
}

TEST(ModeMatrixCross, FourThreadsMatchOneThread) {
  // The tier's goldens are recorded at one thread; every engine width
  // must reproduce them byte for byte.
  for (const std::size_t i : {std::size_t{1}, std::size_t{3}, std::size_t{17}}) {
    const ModeCase& c = cases()[i];
    ExperimentConfig cfg = make_config(c);
    cfg.threads = 4;
    EXPECT_EQ(sweep::summarize(cell_results(c)),
              sweep::summarize(Experiment(cfg).run()))
        << "row " << i;
  }
}

}  // namespace
}  // namespace dirq::core
