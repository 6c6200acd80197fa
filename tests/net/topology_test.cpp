// Topology: unit-disk connectivity, explicit links, dynamics, observers.
#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace dirq::net {
namespace {

std::vector<Node> line_nodes(std::size_t n, double spacing) {
  std::vector<Node> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i].x = static_cast<double>(i) * spacing;
    nodes[i].y = 0.0;
    nodes[i].sensors = {kSensorTemperature};
  }
  return nodes;
}

TEST(Topology, UnitDiskLinksNeighborsOnly) {
  Topology t(line_nodes(4, 1.0), 1.5);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.link_count(), 3u);
  auto n1 = t.neighbors(1);
  ASSERT_EQ(n1.size(), 2u);
  EXPECT_EQ(n1[0], 0u);
  EXPECT_EQ(n1[1], 2u);
}

TEST(Topology, WiderRangeAddsLinks) {
  Topology t(line_nodes(4, 1.0), 2.5);
  EXPECT_EQ(t.link_count(), 5u);  // 0-1,0-2,1-2,1-3,2-3
}

TEST(Topology, ConnectivityDetection) {
  Topology connected(line_nodes(5, 1.0), 1.1);
  EXPECT_TRUE(connected.is_connected());
  Topology split(line_nodes(5, 2.0), 1.0);  // spacing > range
  EXPECT_FALSE(split.is_connected());
}

TEST(Topology, SingleNodeIsConnected) {
  Topology t(line_nodes(1, 1.0), 1.0);
  EXPECT_TRUE(t.is_connected());
  EXPECT_EQ(t.link_count(), 0u);
}

TEST(Topology, ExplicitLinksConstructor) {
  std::vector<Node> nodes = line_nodes(4, 100.0);  // far apart
  Topology t(nodes, {{0, 1}, {0, 2}, {2, 3}});
  EXPECT_EQ(t.link_count(), 3u);
  EXPECT_TRUE(t.is_connected());
  EXPECT_EQ(t.neighbors(0).size(), 2u);
}

TEST(Topology, ExplicitLinksNamingADeadNodeAreDropped) {
  // neighbors() lists alive neighbours and link_count() counts links
  // between alive nodes, so a link naming a node that is dead from the
  // start is dropped, as kill_node drops a dying node's links. Two shapes:
  // the dead node hangs off node 0's component, or forms one with an
  // alive node that node 0 cannot reach.
  for (const auto& links :
       {std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}},
        std::vector<std::pair<NodeId, NodeId>>{{1, 2}}}) {
    std::vector<Node> nodes = line_nodes(3, 100.0);
    nodes[2].alive = false;
    const Topology t(nodes, links);
    const bool linked = links.size() == 2;
    EXPECT_EQ(t.link_count(), linked ? 1u : 0u);
    EXPECT_EQ(t.neighbors(1).size(), linked ? 1u : 0u);
    EXPECT_TRUE(t.neighbors(2).empty());
    EXPECT_EQ(t.max_degree(), linked ? 1u : 0u);
    EXPECT_EQ(t.is_connected(), linked);
  }
}

TEST(Topology, ExplicitLinksRejectBadEndpoints) {
  std::vector<Node> nodes = line_nodes(3, 1.0);
  EXPECT_THROW(Topology(nodes, {{0, 0}}), std::invalid_argument);
  EXPECT_THROW(Topology(nodes, {{0, 7}}), std::invalid_argument);
}

TEST(Topology, KillNodeRemovesLinksAndCount) {
  Topology t(line_nodes(4, 1.0), 1.1);
  t.kill_node(1);
  EXPECT_FALSE(t.is_alive(1));
  EXPECT_EQ(t.alive_count(), 3u);
  EXPECT_EQ(t.link_count(), 1u);  // only 2-3 remains
  EXPECT_TRUE(t.neighbors(1).empty());
  EXPECT_FALSE(t.is_connected());  // 0 separated from 2-3
}

TEST(Topology, KillNodeIsIdempotent) {
  Topology t(line_nodes(3, 1.0), 1.1);
  t.kill_node(1);
  t.kill_node(1);
  EXPECT_EQ(t.alive_count(), 2u);
}

TEST(Topology, ReviveRelinksByDisk) {
  Topology t(line_nodes(4, 1.0), 1.1);
  t.kill_node(1);
  Node revived;
  revived.id = 1;
  revived.x = 1.0;
  revived.y = 0.0;
  revived.sensors = {kSensorHumidity};
  EXPECT_EQ(t.add_node(revived), 1u);
  EXPECT_TRUE(t.is_alive(1));
  EXPECT_EQ(t.link_count(), 3u);
  EXPECT_TRUE(t.node(1).has_sensor(kSensorHumidity));
}

TEST(Topology, AddBrandNewNodeAppends) {
  Topology t(line_nodes(3, 1.0), 1.1);
  Node extra;
  extra.x = 3.0;
  extra.y = 0.0;
  extra.sensors = {kSensorLight};
  const NodeId id = t.add_node(extra);
  EXPECT_EQ(id, 3u);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.link_count(), 3u);  // linked to node 2
}

TEST(Topology, AddAliveNodeThrows) {
  Topology t(line_nodes(3, 1.0), 1.1);
  Node dup;
  dup.id = 1;
  EXPECT_THROW(t.add_node(dup), std::invalid_argument);
}

TEST(Topology, SensorQueries) {
  std::vector<Node> nodes = line_nodes(3, 1.0);
  nodes[1].sensors = {kSensorHumidity, kSensorTemperature};
  nodes[2].sensors = {kSensorHumidity};
  Topology t(std::move(nodes), 1.1);
  auto types = t.sensor_types_present();
  EXPECT_EQ(types, (std::vector<SensorType>{kSensorTemperature, kSensorHumidity}));
  EXPECT_EQ(t.nodes_with_sensor(kSensorHumidity),
            (std::vector<NodeId>{1, 2}));
}

TEST(Topology, SensorMutation) {
  Topology t(line_nodes(2, 1.0), 1.1);
  t.add_sensor(0, kSensorLight);
  EXPECT_TRUE(t.node(0).has_sensor(kSensorLight));
  t.add_sensor(0, kSensorLight);  // idempotent
  t.remove_sensor(0, kSensorLight);
  EXPECT_FALSE(t.node(0).has_sensor(kSensorLight));
}

TEST(Topology, SensorListsAreSortedUnique) {
  std::vector<Node> nodes(1);
  nodes[0].sensors = {3, 1, 3, 2, 1};
  Topology t(std::move(nodes), 1.0);
  EXPECT_EQ(t.node(0).sensors, (std::vector<SensorType>{1, 2, 3}));
}

struct RecordingObserver final : TopologyObserver {
  std::vector<NodeId> died, added;
  std::vector<std::pair<NodeId, SensorType>> sensor_added, sensor_removed;
  void on_node_died(NodeId id) override { died.push_back(id); }
  void on_node_added(NodeId id) override { added.push_back(id); }
  void on_sensor_added(NodeId id, SensorType t) override {
    sensor_added.emplace_back(id, t);
  }
  void on_sensor_removed(NodeId id, SensorType t) override {
    sensor_removed.emplace_back(id, t);
  }
};

TEST(Topology, ObserverReceivesEvents) {
  Topology t(line_nodes(3, 1.0), 1.1);
  RecordingObserver obs;
  t.add_observer(&obs);
  t.kill_node(2);
  Node n;
  n.id = 2;
  n.x = 2.0;
  t.add_node(n);
  t.add_sensor(0, kSensorLight);
  t.remove_sensor(0, kSensorLight);
  EXPECT_EQ(obs.died, (std::vector<NodeId>{2}));
  EXPECT_EQ(obs.added, (std::vector<NodeId>{2}));
  ASSERT_EQ(obs.sensor_added.size(), 1u);
  EXPECT_EQ(obs.sensor_added[0].second, kSensorLight);
  ASSERT_EQ(obs.sensor_removed.size(), 1u);
}

TEST(Topology, RemoveObserverStopsEvents) {
  Topology t(line_nodes(3, 1.0), 1.1);
  RecordingObserver obs;
  t.add_observer(&obs);
  t.remove_observer(&obs);
  t.kill_node(0);
  EXPECT_TRUE(obs.died.empty());
}

TEST(Topology, MaxDegree) {
  // Star: node 0 in the middle.
  std::vector<Node> nodes(5);
  nodes[0] = {};
  for (std::size_t i = 1; i < 5; ++i) {
    nodes[i].x = (i % 2 == 0) ? 0.5 : -0.5;
    nodes[i].y = (i < 3) ? 0.5 : -0.5;
  }
  Topology t(std::move(nodes), 0.9);
  EXPECT_EQ(t.max_degree(), 4u);
}

TEST(Topology, DistanceIsEuclidean) {
  std::vector<Node> nodes(2);
  nodes[1].x = 3.0;
  nodes[1].y = 4.0;
  Topology t(std::move(nodes), 10.0);
  EXPECT_DOUBLE_EQ(t.distance(0, 1), 5.0);
}

}  // namespace
}  // namespace dirq::net
