// Adaptive Threshold Control up close — the paper's §6 / Fig. 6 behaviour
// at node granularity.
//
// Runs the standard network under ATC while the query load steps up and
// down, and prints how individual nodes' thresholds move autonomously:
// a node sitting on a volatile light field behaves differently from one on
// placid soil moisture, using only locally available information.
//
//   $ ./adaptive_thresholds
#include <iostream>

#include "dirq/dirq.hpp"

int main() {
  using namespace dirq;

  sim::Rng rng(23);
  net::Topology topo = net::random_connected(net::RandomPlacementConfig{}, rng);
  data::Environment env(topo, 4, rng.substream("environment"));

  core::NetworkConfig cfg;
  cfg.mode = core::NetworkConfig::ThetaMode::Atc;
  core::DirqNetwork net(topo, 0, cfg);
  query::WorkloadGenerator workload(topo, net.tree(), env,
                                    query::WorkloadConfig{0.4, 0.02},
                                    rng.substream("workload"));
  // A responsive predictor (alpha 0.7) keeps the EHr estimate within about
  // an hour of an abrupt load change; the budget necessarily lags by that
  // much (the root can only predict from history, paper §3).
  query::QueryRatePredictor predictor(0.7, kEpochsPerHour);

  // Pick two contrasting reporter nodes: one with a light sensor (fast
  // diurnal field) and one with soil moisture (almost static field).
  NodeId light_node = kNoNode, soil_node = kNoNode;
  for (const net::Node& n : topo.nodes()) {
    if (n.id == 0) continue;
    if (light_node == kNoNode && n.has_sensor(kSensorLight)) light_node = n.id;
    if (soil_node == kNoNode && n.has_sensor(kSensorSoilMoisture) &&
        !n.has_sensor(kSensorLight)) {
      soil_node = n.id;
    }
  }
  std::cout << "reporters: node " << light_node << " (light), node "
            << soil_node << " (soil moisture)\n\n";

  // Load profile: hours 0-1 normal (1 query / 20 epochs), hours 2-3 heavy
  // (1 / 5), hours 4-7 idle (1 / 100). EHr predictions follow with about
  // one hour of lag, and ATC re-budgets every hour.
  const auto period_for_hour = [](std::int64_t hour) -> std::int64_t {
    if (hour < 2) return 20;
    if (hour < 4) return 5;
    return 100;
  };

  metrics::Table table({"hour", "query_period", "EHr", "updates/hr",
                        "theta(light_node)%", "theta(soil_node)%", "net_mean%"});

  std::int64_t updates_at_start = 0;
  const std::int64_t hours = 8;
  for (std::int64_t epoch = 0; epoch < hours * kEpochsPerHour; ++epoch) {
    env.advance_to(epoch);
    const std::int64_t hour = epoch / kEpochsPerHour;
    if (epoch % kEpochsPerHour == 0) {
      const double ehr =
          predictor.completed_hours() > 0
              ? predictor.predict_next_hour()
              : static_cast<double>(kEpochsPerHour) /
                    static_cast<double>(period_for_hour(0));
      net.broadcast_ehr(0, ehr, epoch);
      updates_at_start = net.updates_transmitted();
    }
    net.process_epoch(env, epoch);
    if (epoch > 0 && epoch % period_for_hour(hour) == 0) {
      (void)net.inject(0, workload.next(epoch), epoch);
      predictor.record_query(epoch);
    }
    if ((epoch + 1) % kEpochsPerHour == 0) {
      double mean = 0.0;
      std::size_t n = 0;
      for (NodeId u : net.tree().bfs_order()) {
        if (u == net.root(0)) continue;
        mean += net.node(u).controller(0).theta_pct(kSensorTemperature);
        ++n;
      }
      const auto& light_ctl = net.node(light_node).controller(0);
      const auto& soil_ctl = net.node(soil_node).controller(0);
      table.add_row(
          {std::to_string(hour), std::to_string(period_for_hour(hour)),
           metrics::fmt(predictor.predict_next_hour(), 0),
           std::to_string(net.updates_transmitted() - updates_at_start),
           metrics::fmt(light_ctl.theta_pct(kSensorLight)),
           metrics::fmt(soil_ctl.theta_pct(kSensorSoilMoisture)),
           metrics::fmt(mean / static_cast<double>(n))});
    }
  }

  table.print(std::cout);
  std::cout << "\nHeavy-load hours (2-3) raise the EHr estimate -> bigger "
               "update budget -> thresholds\nnarrow for accuracy. The switch "
               "to idle at hour 4 reaches the budget with about an\nhour of "
               "prediction lag (the root can only extrapolate history), after "
               "which\nthresholds widen again to save energy. The volatile "
               "light field holds a wider\ntheta than the placid soil field "
               "at the same node budget — all decisions from\nlocally "
               "available information only.\n";
  return 0;
}
