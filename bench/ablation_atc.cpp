// Ablation A1 — ATC control law: multiplicative (default) vs additive
// theta adjustment. Both laws must land the update traffic inside the
// paper's 45-55 % band; the interesting differences are convergence speed
// (updates spent during the first hour) and steady-state jitter.
#include "bench_util.hpp"

int main() {
  using namespace dirq;
  bench::print_header("Ablation A1 — ATC control law",
                      "paper Section 6 ATC, design-choice ablation");

  sweep::ExperimentPlan plan("ablation-atc-law", [] {
    core::ExperimentConfig cfg = sweep::paper_config();
    sweep::atc().apply(cfg);
    sweep::relevant(0.4).apply(cfg);
    cfg.keep_records = false;
    return cfg;
  }());
  plan.axis(sweep::custom_axis(
      "law", {{"multiplicative",
               [](core::ExperimentConfig& cfg) {
                 cfg.network.atc.law = core::AtcLaw::Multiplicative;
               }},
              {"additive", [](core::ExperimentConfig& cfg) {
                 cfg.network.atc.law = core::AtcLaw::Additive;
               }}}));

  const std::vector<sweep::CellResult> results = sweep::require_ok(sweep::SweepRunner().run(plan));

  sweep::ConsoleTableSink console(std::cout);
  sweep::report(
      {"ablation ATC control law", plan.name(),
       {"law", "ratio_vs_flood", "steady_vs_Umax", "first_hour_updates",
        "steady_jitter", "avg_overshoot_%"}},
      results,
      [](const sweep::CellResult& r) {
        const core::ExperimentResults& res = r.results;
        const double umax_per_100 =
            res.umax_per_hour.back() * 100.0 / kEpochsPerHour;
        const std::size_t steady_first = kEpochsPerHour / 100;
        const std::size_t bins = res.updates_per_bin.bin_count();
        const double steady = res.updates_per_bin.mean_over(steady_first, bins);
        // Jitter: RMS deviation of per-bin counts from the steady mean.
        sim::RunningStat dev;
        for (std::size_t b = steady_first; b < bins; ++b) {
          dev.push(res.updates_per_bin.bin(b) - steady);
        }
        double first_hour = 0.0;
        for (std::size_t b = 0; b < steady_first && b < bins; ++b) {
          first_hour += res.updates_per_bin.bin(b);
        }
        return std::vector<std::string>{
            *r.cell.coordinate("law"), metrics::fmt(res.cost_ratio(), 3),
            metrics::fmt(steady / umax_per_100, 3), metrics::fmt(first_hour, 0),
            metrics::fmt(dev.stddev(), 1),
            metrics::fmt(res.overshoot_pct.mean())};
      },
      {&console});
  std::cout << "\n(steady_vs_Umax inside [0.45, 0.55] reproduces Fig. 6's "
               "band for either law)\n";
  return 0;
}
