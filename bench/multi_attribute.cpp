// Extension E10 — the paper-§2 attribute capabilities, quantified:
//
//   1. conjunctive multi-attribute queries ("DirQ can use multiple
//      attributes", unlike SRT) — cost and accuracy vs the equivalent
//      single-attribute projections, and
//   2. the optional static location attribute ("even location (static) if
//      it is available") — how much regional pruning saves.
//
// Both parts run as explicit-cell plans with bespoke cell bodies; each
// cell rebuilds the identical world from the shared seed (the generators
// are deterministic), so cells stay independent no matter which thread
// runs them.
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "net/placement.hpp"
#include "query/workload.hpp"
#include "sim/rng.hpp"

namespace {

using namespace dirq;

constexpr std::uint64_t kSeed = 42;
constexpr int kQueries = 200;

/// The shared warm world: 200 settled epochs at fixed theta = 5 %.
struct World {
  sim::Rng rng;
  net::Topology topo;
  data::Environment env;
  core::DirqNetwork net;
  query::WorkloadGenerator gen;

  World()
      : rng(kSeed),
        topo(net::random_connected(net::RandomPlacementConfig{}, rng)),
        env(topo, 4, rng.substream("env")),
        net(topo, 0,
            [] {
              core::NetworkConfig cfg;
              cfg.mode = core::NetworkConfig::ThetaMode::Fixed;
              cfg.fixed_pct = 5.0;
              return cfg;
            }()),
        gen(topo, net.tree(), env, query::WorkloadConfig{0.4, 0.02},
            rng.substream("wl")) {
    for (std::int64_t e = 0; e < 200; ++e) {
      env.advance_to(e);
      net.process_epoch(env, e);
    }
  }
};

struct StrategyOutcome {
  double mean_cost = 0.0;
  double mean_sources = 0.0;
  double mean_received = -1.0;  // < 0: not applicable
  double coverage = -1.0;
};

/// Replays the same 200-conjunction stream either as in-network
/// conjunctions or as per-attribute projections (what a single-attribute
/// scheme must do, with client-side intersection).
StrategyOutcome run_strategy(bool conjunctive) {
  World w;
  sim::RunningStat cost, sources, received, cov;
  for (int i = 0; i < kQueries; ++i) {
    const query::MultiQuery mq = w.gen.next_multi(200, 2);
    if (conjunctive) {
      const query::Involvement truth =
          query::compute_involvement(mq, w.topo, w.net.tree(), w.env);
      const core::QueryOutcome out = w.net.inject(0, mq, 200);
      const metrics::QueryAudit audit =
          metrics::audit_query(truth.involved, out.received);
      cost.push(static_cast<double>(out.cost));
      sources.push(static_cast<double>(truth.sources.size()));
      received.push(static_cast<double>(out.received.size()));
      cov.push(audit.coverage_pct());
    } else {
      CostUnits c = 0;
      double s = 0.0;
      for (const query::AttributePredicate& p : mq.predicates) {
        query::RangeQuery rq{static_cast<QueryId>(1000000 + i * 10), p.type,
                             p.lo, p.hi, 200, std::nullopt};
        const core::QueryOutcome po = w.net.inject(0, rq, 200);
        c += po.cost;
        s += static_cast<double>(
            query::compute_involvement(rq, w.topo, w.net.tree(), w.env)
                .sources.size());
      }
      cost.push(static_cast<double>(c));
      sources.push(s);
    }
  }
  StrategyOutcome out;
  out.mean_cost = cost.mean();
  out.mean_sources = sources.mean();
  if (conjunctive) {
    out.mean_received = received.mean();
    out.coverage = cov.mean();
  }
  return out;
}

struct RegionOutcome {
  double with_cost = 0.0;
  double without_cost = 0.0;
};

RegionOutcome run_region(double frac) {
  World w;
  sim::RunningStat with_cost, without_cost;
  for (int i = 0; i < kQueries; ++i) {
    query::RangeQuery q = w.gen.next_regional(200, frac);
    with_cost.push(static_cast<double>(w.net.inject(0, q, 200).cost));
    q.id += 2000000;
    q.region.reset();
    without_cost.push(static_cast<double>(w.net.inject(0, q, 200).cost));
  }
  return {with_cost.mean(), without_cost.mean()};
}

}  // namespace

int main() {
  using namespace dirq;
  bench::print_header("Extension — multi-attribute and location routing",
                      "paper Section 2 capability claims");

  const sweep::SweepRunner runner;

  // --- multi-attribute vs single-attribute projections ---------------------
  sweep::ExperimentPlan strategies("multi-attribute", core::ExperimentConfig{});
  strategies.cell("conjunctive multi-attribute", [](core::ExperimentConfig&) {});
  strategies.cell("per-attribute projections", [](core::ExperimentConfig&) {});
  const std::vector<StrategyOutcome> outcomes =
      runner.map(strategies, [](const sweep::PlanCell& cell) {
        return run_strategy(cell.index == 0);
      });

  sweep::ConsoleTableSink console(std::cout);
  const sweep::SweepHeader mh{
      "conjunctions vs projections", strategies.name(),
      {"strategy", "mean_cost", "mean_sources", "mean_received", "coverage_%"}};
  console.begin(mh);
  const std::vector<sweep::PlanCell> strategy_cells = strategies.cells();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const StrategyOutcome& o = outcomes[i];
    console.row({strategy_cells[i].label, metrics::fmt(o.mean_cost),
                 metrics::fmt(o.mean_sources),
                 o.mean_received < 0 ? "-" : metrics::fmt(o.mean_received),
                 o.coverage < 0 ? "-" : metrics::fmt(o.coverage)},
                &strategy_cells[i], nullptr);
  }
  std::cout << "Two-attribute conjunctions, " << kQueries << " queries:\n";
  console.end();
  std::cout << "\nIn-network conjunction pays one dissemination and prunes "
               "branches missing either\nattribute; the projection strategy "
               "pays one dissemination per attribute and ships\na superset "
               "of sources for client-side intersection.\n\n";

  // --- location pruning ------------------------------------------------------
  const std::vector<double> fracs{0.1, 0.25, 0.5};
  sweep::ExperimentPlan regions("location-pruning", core::ExperimentConfig{});
  for (double f : fracs) regions.cell(metrics::fmt(f), [](core::ExperimentConfig&) {});
  const std::vector<RegionOutcome> region_outcomes =
      runner.map(regions, [&fracs](const sweep::PlanCell& cell) {
        return run_region(fracs[cell.index]);
      });

  const sweep::SweepHeader lh{
      "location pruning", regions.name(),
      {"region_fraction", "mean_cost_with_region", "mean_cost_without",
       "saving_%"}};
  console.begin(lh);
  const std::vector<sweep::PlanCell> region_cells = regions.cells();
  for (std::size_t i = 0; i < region_outcomes.size(); ++i) {
    const RegionOutcome& o = region_outcomes[i];
    console.row(
        {region_cells[i].label, metrics::fmt(o.with_cost),
         metrics::fmt(o.without_cost),
         metrics::fmt(100.0 * (1.0 - o.with_cost / o.without_cost))},
        &region_cells[i], nullptr);
  }
  std::cout << "Regional queries (same value window, with vs without the "
               "location attribute):\n";
  console.end();
  return 0;
}
