// Ablation A2 — the update trigger. DirQ's theta-hysteresis trigger
// (transmit only when an aggregate bound moves by more than theta, Fig. 3)
// vs a naive send-on-any-change policy (theta ~ 0).
//
// Shows the heart of the paper's energy argument: without hysteresis the
// update stream costs several times flooding; with it, updates collapse
// while accuracy degrades only by the theta widening.
#include "bench_util.hpp"

int main() {
  using namespace dirq;
  bench::print_header("Ablation A2 — update trigger hysteresis",
                      "paper Section 4.1 / Fig. 3");

  sweep::ExperimentPlan plan("ablation-trigger", [] {
    core::ExperimentConfig cfg = sweep::paper_config();
    sweep::relevant(0.4).apply(cfg);
    cfg.epochs = 10000;  // half-length run: the contrast is enormous anyway
    cfg.keep_records = false;
    return cfg;
  }());
  // 0.05 % of span ~ "any visible change"; the paper sweeps 3/5/9 %.
  plan.axis(sweep::custom_axis(
      "trigger",
      {{"naive (theta~0)",
        [](core::ExperimentConfig& cfg) { sweep::fixed_theta(0.05).apply(cfg); }},
       {"theta=3%",
        [](core::ExperimentConfig& cfg) { sweep::fixed_theta(3.0).apply(cfg); }},
       {"theta=5%",
        [](core::ExperimentConfig& cfg) { sweep::fixed_theta(5.0).apply(cfg); }},
       {"theta=9%", [](core::ExperimentConfig& cfg) {
          sweep::fixed_theta(9.0).apply(cfg);
        }}}));

  const std::vector<sweep::CellResult> results = sweep::require_ok(sweep::SweepRunner().run(plan));

  sweep::ConsoleTableSink console(std::cout);
  sweep::report(
      {"ablation update trigger", plan.name(),
       {"trigger", "updates_total", "update_cost", "dirq_total",
        "ratio_vs_flood", "avg_overshoot_%", "avg_coverage_%"}},
      results,
      [](const sweep::CellResult& r) {
        const core::ExperimentResults& res = r.results;
        return std::vector<std::string>{
            *r.cell.coordinate("trigger"),
            std::to_string(res.updates_transmitted),
            std::to_string(res.ledger.update_cost()),
            std::to_string(res.ledger.total()),
            metrics::fmt(res.cost_ratio(), 3),
            metrics::fmt(res.overshoot_pct.mean()),
            metrics::fmt(res.coverage_pct.mean())};
      },
      {&console});
  return 0;
}
