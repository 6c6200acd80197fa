// Quickstart: build the paper's 50-node network, let DirQ settle, pose one
// range query, and compare the directed dissemination against flooding.
//
//   $ ./quickstart
//
// Walks through the whole public API in ~60 lines: placement, environment,
// DirqNetwork, workload, audit, flooding baseline.
#include <iostream>

#include "dirq/dirq.hpp"

int main() {
  using namespace dirq;

  // 1. A connected 50-node deployment with heterogeneous sensor payloads
  //    (4 types), bounded by the paper's k = 8 / d = 10 tree limits.
  sim::Rng rng(/*seed=*/2026);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  std::cout << "deployed " << topo.size() << " nodes, " << topo.link_count()
            << " links\n";

  // 2. The synthetic spatio-temporal environment (paper Section 7).
  data::Environment env(topo, 4, rng.substream("environment"));

  // 3. The DirQ protocol instance with Adaptive Threshold Control.
  core::NetworkConfig cfg;
  cfg.mode = core::NetworkConfig::ThetaMode::Atc;
  core::DirqNetwork network(topo, /*root=*/0, cfg);
  std::cout << "spanning tree: depth " << network.tree().max_depth()
            << ", max branching " << network.tree().max_branching() << "\n";

  // 4. Run 500 sensing epochs so range tables converge, with the hourly
  //    EHr broadcast priming the threshold controllers.
  network.broadcast_ehr(/*tree=*/0, /*expected queries per hour=*/180.0, 0);
  for (std::int64_t epoch = 0; epoch < 500; ++epoch) {
    env.advance_to(epoch);
    network.process_epoch(env, epoch);
  }
  std::cout << "after 500 epochs: " << network.updates_transmitted()
            << " update messages transmitted\n\n";

  // 5. Pose a range query: "all temperature readings currently in a window
  //    that involves roughly 30% of the network".
  query::WorkloadGenerator workload(topo, network.tree(), env,
                                    query::WorkloadConfig{0.3, 0.02},
                                    rng.substream("workload"));
  const query::RangeQuery q = workload.next(500);
  std::cout << "injecting " << q.describe() << "\n";

  // 6. Direct it with DirQ and audit against ground truth.
  const query::Involvement truth =
      query::compute_involvement(q, topo, network.tree(), env);
  const core::QueryOutcome out = network.inject(0, q, 500);
  const metrics::QueryAudit audit =
      metrics::audit_query(truth.involved, out.received);
  std::cout << "  ground truth: " << truth.sources.size() << " sources, "
            << truth.involved.size() << " involved (sources+forwarders)\n"
            << "  DirQ delivered to " << out.received.size() << " nodes ("
            << out.believed_sources.size() << " answered), cost " << out.cost
            << " units\n"
            << "  coverage " << metrics::fmt(audit.coverage_pct())
            << "%, overshoot " << metrics::fmt(audit.overshoot_pct()) << "%\n";

  // 7. The baseline: flooding the same query costs Eq. (3).
  const core::FloodOutcome flood = core::FloodingScheme(topo).flood_from(0);
  std::cout << "  flooding the same query: cost " << flood.cost()
            << " units -> DirQ spent "
            << metrics::fmt(100.0 * static_cast<double>(out.cost) /
                            static_cast<double>(flood.cost()))
            << "% of that (dissemination only)\n";
  return 0;
}
