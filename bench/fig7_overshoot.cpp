// E4/E7 — Fig. 7: per-query overshoot over time for fixed theta = 3/5/9 %
// and ATC at the 20 % relevant-nodes setting, plus the paper's headline
// "average overshoot of only 3.6 %" for ATC.
//
// Paper shape: overshoot ordering 9% > 5% > 3% ~ ATC; ATC's average stays
// in the low single digits despite its update throttling.
#include <vector>

#include "bench_util.hpp"

int main() {
  using namespace dirq;
  bench::print_header("Fig. 7 — overshoot: fixed theta vs ATC",
                      "ICPPW'06 DirQ paper, Figure 7, Section 7.2");

  constexpr double kFraction = 0.2;
  sweep::ExperimentPlan plan("fig7-overshoot", [] {
    core::ExperimentConfig cfg = sweep::paper_config();
    sweep::relevant(kFraction).apply(cfg);
    return cfg;  // keep_records stays on: the time series needs per-query rows
  }());
  plan.axis(sweep::paper_theta_axis());

  const std::vector<sweep::CellResult> results = sweep::require_ok(sweep::SweepRunner().run(plan));

  std::cout << "Percentage of relevant nodes = 20%\n\n";
  sweep::ConsoleTableSink console(std::cout);
  sweep::report(
      {"fig7 overshoot summary, relevant=20%", plan.name(),
       {"series", "delivery_overshoot_%", "wrong_of_pop_%", "src_overshoot_%",
        "delivery_coverage_%", "src_coverage_%"}},
      results,
      [](const sweep::CellResult& r) {
        const core::ExperimentResults& res = r.results;
        return std::vector<std::string>{
            *r.cell.coordinate("theta"), metrics::fmt(res.overshoot_pct.mean()),
            metrics::fmt(res.wrong_pct.mean()),
            metrics::fmt(res.source_overshoot_pct.mean()),
            metrics::fmt(res.coverage_pct.mean()),
            metrics::fmt(res.source_coverage_pct.mean())};
      },
      {&console});
  std::cout
      << "\nPaper headline: ATC average overshoot ~3.6%. Overshoot metric "
         "definitions are\nin src/metrics/audit.hpp (the paper's exact "
         "formula lives in its unavailable\nref [13]); the reproduced shape "
         "is the ordering delta=9% > 5% > ATC ~ 3% and the\npopulation-"
         "normalised column staying in single digits for small theta.\n\n";

  // Time series: mean overshoot per 500-epoch window (25 queries each) —
  // one column per cell, from the kept per-query records.
  constexpr std::int64_t kWindow = 500;
  const std::size_t windows = 20000 / kWindow;
  std::vector<std::vector<double>> sums(results.size());
  std::vector<std::vector<int>> counts(results.size());
  for (std::size_t c = 0; c < results.size(); ++c) {
    sums[c].assign(windows, 0.0);
    counts[c].assign(windows, 0);
    for (const core::QueryRecord& rec : results[c].results.records) {
      const auto w = static_cast<std::size_t>(rec.epoch / kWindow);
      sums[c][w] += rec.audit.overshoot_pct();
      counts[c][w] += 1;
    }
  }
  metrics::TsvBlock tsv("fig7 overshoot %, relevant=20%",
                        {"epoch", "atc", "delta3", "delta5", "delta9"});
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<std::string> row{std::to_string(w * kWindow)};
    for (std::size_t c = 0; c < results.size(); ++c) {
      const int n = counts[c][w];
      row.push_back(metrics::fmt(n ? sums[c][w] / n : 0.0, 3));
    }
    tsv.add_row(std::move(row));
  }
  tsv.print(std::cout);
  return 0;
}
