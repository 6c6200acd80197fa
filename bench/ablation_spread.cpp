// Ablation A3 — cost sensitivity to the location and spread of the
// relevant nodes, validating the paper's §5.2 discussion:
//
//   "if the nodes relevant to the query are located close to the root, the
//    dissemination cost will be much lower ... the greater the spread of
//    the relevant nodes, the greater the dissemination cost."
//
// Three scenarios on a complete 3-ary tree of depth 4 (121 nodes), each
// with exactly 27 source nodes:
//   clustered-shallow — the 27 nodes nearest the root (depths 1-3, one arm)
//   clustered-deep    — all 27 leaves of one depth-1 subtree
//   spread-deep       — 27 leaves spread evenly across the whole leaf level
//
// The scenarios run as an explicit-cell ExperimentPlan with a bespoke cell
// body (a crafted-reading world, not the stochastic §7 experiment); the
// runner still schedules them and the sinks render the rows.
#include <vector>

#include "bench_util.hpp"
#include "net/placement.hpp"
#include "net/spanning_tree.hpp"

namespace {

using namespace dirq;

struct SpreadOutcome {
  std::size_t sources = 0;
  std::size_t received = 0;
  CostUnits cost = 0;
};

/// Samples crafted readings (sources get 100+i, everyone else 50) and
/// injects a query covering exactly the sources.
SpreadOutcome run_scenario(const std::vector<NodeId>& sources) {
  net::Topology topo = net::knary_tree(3, 4);
  core::NetworkConfig cfg;
  cfg.mode = core::NetworkConfig::ThetaMode::Fixed;
  cfg.fixed_pct = 2.0;  // theta = 0.44 in temperature units
  core::DirqNetwork net(topo, 0, cfg);

  std::vector<bool> is_source(topo.size(), false);
  for (NodeId s : sources) is_source[s] = true;
  // Leaves-first so the bootstrap cascade settles in one pass.
  const auto order = net.tree().bfs_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (*it == 0) continue;
    const double reading =
        is_source[*it] ? 100.0 + static_cast<double>(*it) : 50.0;
    // Fixed theta: the slot's controller takes no feed, so the range
    // table alone sees the reading.
    net.node(*it).observe_slot(0, kSensorTemperature, reading, 0);
  }
  const core::QueryOutcome out = net.inject(
      0, query::RangeQuery{1, kSensorTemperature, 99.0, 300.0, 1}, 1);
  return {sources.size(), out.received.size(), out.cost};
}

}  // namespace

int main() {
  bench::print_header("Ablation A3 — source location and spread vs cost",
                      "paper Section 5.2 discussion");

  net::Topology topo = net::knary_tree(3, 4);
  net::SpanningTree tree(topo, 0);

  // clustered-shallow: first 27 BFS members (depths 1..3, skewed near root).
  std::vector<NodeId> shallow;
  for (NodeId u : tree.bfs_order()) {
    if (u != 0 && shallow.size() < 27) shallow.push_back(u);
  }
  // clustered-deep: the 27 leaves under depth-1 node 1.
  std::vector<NodeId> clustered;
  for (NodeId u : tree.subtree(1)) {
    if (tree.children(u).empty()) clustered.push_back(u);
  }
  // spread-deep: every 3rd leaf across the full leaf level.
  std::vector<NodeId> spread;
  const std::vector<NodeId> leaves = tree.leaves();
  for (std::size_t i = 0; i < leaves.size() && spread.size() < 27; i += 3) {
    spread.push_back(leaves[i]);
  }

  const std::vector<std::pair<std::string, std::vector<NodeId>>> scenarios{
      {"clustered-shallow", shallow},
      {"clustered-deep", clustered},
      {"spread-deep", spread}};

  sweep::ExperimentPlan plan("ablation-spread", core::ExperimentConfig{});
  for (const auto& scenario : scenarios) {
    plan.cell(scenario.first, [](core::ExperimentConfig&) {});
  }

  const std::vector<SpreadOutcome> outcomes = sweep::SweepRunner().map(
      plan, [&scenarios](const sweep::PlanCell& cell) {
        return run_scenario(scenarios[cell.index].second);
      });

  const sweep::SweepHeader header{
      "source spread vs cost", plan.name(),
      {"scenario", "sources", "received", "dissemination_cost"}};
  sweep::ConsoleTableSink console(std::cout);
  console.begin(header);
  const std::vector<sweep::PlanCell> cells = plan.cells();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    console.row({cells[i].label, std::to_string(outcomes[i].sources),
                 std::to_string(outcomes[i].received),
                 std::to_string(outcomes[i].cost)},
                &cells[i], nullptr);
  }
  console.end();
  std::cout << "\nExpected ordering (paper Section 5.2): clustered-shallow < "
               "clustered-deep < spread-deep\n";
  return 0;
}
