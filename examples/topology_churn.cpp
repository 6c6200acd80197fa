// Topology churn over the real (simulated) LMAC — the paper's §4.2 story.
//
// DirQ runs over LMAC with the cross-layer hook wired up: when a node dies
// silently, its neighbours detect the loss by missing its TDMA control
// messages, notify DirQ, and the range tables + spanning tree repair
// themselves. A node added later joins LMAC by listening for a frame,
// claims a free slot, and announces its ranges up the tree. Queries keep
// routing correctly throughout.
//
//   $ ./topology_churn
#include <iostream>
#include <set>

#include "dirq/dirq.hpp"
#include "sim/scheduler.hpp"

using namespace dirq;

namespace {

void status(const char* phase, core::DirqNetwork& net,
            const net::Topology& topo) {
  std::cout << phase << ": " << topo.alive_count() << " alive nodes, tree "
            << net.tree().size() << " members, depth "
            << net.tree().max_depth() << "\n";
}

void probe_query(core::DirqNetwork& net, const net::Topology& topo,
                 const data::Environment& env, sim::Scheduler& sched,
                 mac::LmacNetwork& mac, std::int64_t epoch, QueryId id) {
  query::RangeQuery q{id, kSensorTemperature, 0.0, 100.0, epoch};
  const query::Involvement truth =
      query::compute_involvement(q, topo, net.tree(), env);
  net.inject_async(0, q, epoch);
  sched.run_until(sched.now() + 12 * mac.config().frame_ticks());
  const core::QueryOutcome out = net.collect_outcome();
  const metrics::QueryAudit audit =
      metrics::audit_query(truth.involved, out.received);
  std::cout << "  probe query reached " << out.received.size() << "/"
            << truth.involved.size()
            << " involved nodes (coverage " << metrics::fmt(audit.coverage_pct())
            << "%)\n";
}

}  // namespace

int main() {
  sim::Rng rng(11);
  net::RandomPlacementConfig pcfg;
  pcfg.node_count = 30;  // smaller network keeps the frame log readable
  net::Topology topo = net::random_connected(pcfg, rng);
  data::Environment env(topo, 4, rng.substream("environment"));

  sim::Scheduler sched;
  mac::LmacConfig mac_cfg;  // 32 slots x 32 ticks = 1 epoch per frame
  mac::LmacNetwork mac(sched, topo, mac_cfg);

  core::NetworkConfig cfg;
  cfg.mode = core::NetworkConfig::ThetaMode::Fixed;
  cfg.fixed_pct = 5.0;
  core::DirqNetwork net(topo, 0, cfg);
  core::LmacTransport transport(mac, static_cast<core::MessageSink&>(net));
  net.use_transport(transport);

  // Cross-layer wiring (paper §4.2): LMAC's timeout-based neighbour-death
  // notification triggers DirQ's tree/table repair.
  std::set<NodeId> handled;
  transport.set_on_neighbor_lost([&](NodeId self, NodeId dead) {
    if (handled.insert(dead).second) {
      std::cout << "  [cross-layer] node " << self << " timed out neighbour "
                << dead << " -> DirQ repairs tree + range tables\n";
      net.handle_node_death(dead, sched.now() / kTicksPerEpoch);
    }
  });
  mac.start();

  auto run_epochs = [&](std::int64_t epochs) {
    for (std::int64_t i = 0; i < epochs; ++i) {
      const std::int64_t epoch = sched.now() / kTicksPerEpoch;
      env.advance_to(epoch);
      net.process_epoch(env, epoch);
      sched.run_until(sched.now() + kTicksPerEpoch);
    }
  };

  status("bootstrap", net, topo);
  run_epochs(30);
  probe_query(net, topo, env, sched, mac, 30, 1);

  // --- silent node death ----------------------------------------------------
  const NodeId victim = net.tree().leaves().front();
  std::cout << "\nkilling node " << victim << " (a leaf) silently...\n";
  topo.kill_node(victim);
  run_epochs(10);  // timeout_frames = 4 frames < 10 epochs
  status("after death", net, topo);
  probe_query(net, topo, env, sched, mac, 40, 2);

  // --- node addition ----------------------------------------------------------
  std::cout << "\ndeploying a replacement node with a fresh soil sensor...\n";
  net::Node fresh;
  fresh.x = topo.node(victim).x + 1.0;
  fresh.y = topo.node(victim).y;
  fresh.sensors = {kSensorTemperature, kSensorSoilMoisture};
  const NodeId newcomer = topo.add_node(fresh);
  net.handle_node_addition(newcomer, sched.now() / kTicksPerEpoch);
  run_epochs(10);  // joiner listens one frame, claims a slot, announces
  std::cout << "  newcomer " << newcomer << " claimed LMAC slot "
            << mac.slot_of(newcomer) << ", tree parent "
            << net.tree().parent(newcomer) << "\n";
  status("after join", net, topo);
  probe_query(net, topo, env, sched, mac, 60, 3);

  // --- post-deployment sensor addition (paper §4.2 scalability) ---------------
  std::cout << "\nattaching a humidity sensor to node " << newcomer
            << " post-deployment...\n";
  topo.add_sensor(newcomer, kSensorHumidity);
  net.handle_sensor_added(newcomer, kSensorHumidity, sched.now() / kTicksPerEpoch);
  run_epochs(5);
  query::RangeQuery hq{4, kSensorHumidity, 0.0, 200.0, 65};
  net.inject_async(0, hq, 65);
  sched.run_until(sched.now() + 12 * mac_cfg.frame_ticks());
  const core::QueryOutcome out = net.collect_outcome();
  const bool reached = std::binary_search(out.received.begin(),
                                          out.received.end(), newcomer);
  std::cout << "  humidity query now reaches the new sensor: "
            << (reached ? "yes" : "no") << "\n";
  return reached ? 0 : 1;
}
