// DirqNode in isolation: the per-node state machine driven directly,
// without a network — message emission, table lifecycle, tree maintenance.
#include "core/dirq_node.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dirq::core {
namespace {

constexpr SensorType kT = kSensorTemperature;
constexpr SensorType kH = kSensorHumidity;

struct Outbox {
  struct Sent {
    NodeId from, to;
    Message msg;
  };
  std::vector<Sent> unicasts;
  std::vector<std::pair<NodeId, std::vector<NodeId>>> multicasts;
  std::vector<NodeId> broadcasts;

  void wire(DirqNode& n) {
    n.set_send([this](NodeId from, NodeId to, const Message& m) {
      unicasts.push_back({from, to, m});
    });
    n.set_multicast([this](NodeId from, const std::vector<NodeId>& targets,
                           const Message&) {
      multicasts.emplace_back(from, targets);
    });
    n.set_broadcast([this](NodeId from, const Message&) {
      broadcasts.push_back(from);
    });
  }

  [[nodiscard]] std::size_t update_count() const {
    std::size_t n = 0;
    for (const Sent& s : unicasts) {
      if (std::holds_alternative<UpdateMessage>(s.msg)) ++n;
    }
    return n;
  }
  [[nodiscard]] const UpdateMessage& last_update() const {
    for (auto it = unicasts.rbegin(); it != unicasts.rend(); ++it) {
      if (const auto* u = std::get_if<UpdateMessage>(&it->msg)) return *u;
    }
    throw std::logic_error("no update sent");
  }
};

DirqNode make_node(NodeId id, std::vector<SensorType> sensors,
                   double pct = 5.0) {
  return DirqNode(id, std::move(sensors),
                  std::make_unique<FixedTheta>(pct));
}

TEST(DirqNode, FirstSampleAnnouncesToParent) {
  DirqNode n = make_node(7, {kT});
  n.set_parent(0, 2);
  Outbox out;
  out.wire(n);
  n.observe_slot(0, kT, 20.0, 0);
  ASSERT_EQ(out.update_count(), 1u);
  const UpdateMessage& u = out.last_update();
  EXPECT_EQ(u.from, 7u);
  EXPECT_EQ(u.type, kT);
  EXPECT_TRUE(u.has_range);
  EXPECT_DOUBLE_EQ(u.min, 20.0 - 1.1);
  EXPECT_DOUBLE_EQ(u.max, 20.0 + 1.1);
}

TEST(DirqNode, RootSwallowsUpdates) {
  DirqNode n = make_node(0, {kT});  // parent defaults to kNoNode
  Outbox out;
  out.wire(n);
  n.observe_slot(0, kT, 20.0, 0);
  EXPECT_EQ(out.update_count(), 0u);
  EXPECT_EQ(n.updates_sent(), 0);
}

TEST(DirqNode, SmallMovesStaySilent) {
  DirqNode n = make_node(7, {kT});
  n.set_parent(0, 2);
  Outbox out;
  out.wire(n);
  n.observe_slot(0, kT, 20.0, 0);
  n.observe_slot(0, kT, 20.5, 1);   // inside [18.9, 21.1]
  n.observe_slot(0, kT, 19.2, 2);
  EXPECT_EQ(out.update_count(), 1u);
}

TEST(DirqNode, EscapeRetriggersUpdate) {
  DirqNode n = make_node(7, {kT});
  n.set_parent(0, 2);
  Outbox out;
  out.wire(n);
  n.observe_slot(0, kT, 20.0, 0);
  // Escapes: new tuple [23.9, 26.1], moved > theta.
  n.observe_slot(0, kT, 25.0, 1);
  EXPECT_EQ(out.update_count(), 2u);
  EXPECT_EQ(n.updates_sent(), 2);
}

TEST(DirqNode, ChildUpdateMergesAndRelays) {
  DirqNode n = make_node(5, {});
  n.set_parent(0, 0);
  n.set_children(0, {8, 9});
  Outbox out;
  out.wire(n);
  n.handle(Message{UpdateMessage{8, 0, kT, 10.0, 12.0, true}}, 8, 0);
  ASSERT_EQ(out.update_count(), 1u);  // relayed to parent
  EXPECT_DOUBLE_EQ(out.last_update().min, 10.0);
  const RangeTable* t = n.table(0, kT);
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->child(8).has_value());
}

TEST(DirqNode, UpdateFromNonChildIgnored) {
  DirqNode n = make_node(5, {});
  n.set_parent(0, 0);
  n.set_children(0, {8});
  Outbox out;
  out.wire(n);
  n.handle(Message{UpdateMessage{9, 0, kT, 10.0, 12.0, true}}, 9, 0);
  EXPECT_EQ(out.update_count(), 0u);
  EXPECT_EQ(n.table(0, kT), nullptr);
}

TEST(DirqNode, RetractionEmptiesTableAndRelays) {
  DirqNode n = make_node(5, {});
  n.set_parent(0, 0);
  n.set_children(0, {8});
  Outbox out;
  out.wire(n);
  n.handle(Message{UpdateMessage{8, 0, kT, 10.0, 12.0, true}}, 8, 0);
  n.handle(Message{UpdateMessage{8, 0, kT, 0.0, 0.0, false}}, 8, 1);
  EXPECT_EQ(n.table(0, kT), nullptr);  // has_any() false -> hidden
  ASSERT_EQ(out.update_count(), 2u);
  EXPECT_FALSE(out.last_update().has_range);  // retraction relayed
}

TEST(DirqNode, QueryForwardingUsesMulticast) {
  DirqNode n = make_node(5, {});
  n.set_children(0, {8, 9, 10});
  Outbox out;
  out.wire(n);
  n.handle(Message{UpdateMessage{8, 0, kT, 10.0, 12.0, true}}, 8, 0);
  n.handle(Message{UpdateMessage{9, 0, kT, 30.0, 35.0, true}}, 9, 0);
  n.handle(Message{UpdateMessage{10, 0, kT, 11.0, 13.0, true}}, 10, 0);
  out.multicasts.clear();
  n.handle(Message{QueryMessage{query::RangeQuery{1, kT, 11.5, 11.9, 1}}}, 0, 1);
  ASSERT_EQ(out.multicasts.size(), 1u);
  EXPECT_EQ(out.multicasts[0].second, (std::vector<NodeId>{8, 10}));
}

TEST(DirqNode, EhrDuplicateSuppression) {
  DirqNode n = make_node(5, {});
  Outbox out;
  out.wire(n);
  EhrMessage e;
  e.round = 1;
  e.alive_nodes = 10;
  e.umax_per_hour = 100.0;
  n.handle(Message{e}, 2, 0);
  n.handle(Message{e}, 3, 0);  // same round from another neighbour
  EXPECT_EQ(out.broadcasts.size(), 1u);
  EXPECT_EQ(n.last_ehr_round(0), 1);
  e.round = 2;
  n.handle(Message{e}, 2, 1);
  EXPECT_EQ(out.broadcasts.size(), 2u);
}

TEST(DirqNode, ChildLossTriggersCorrection) {
  DirqNode n = make_node(5, {kT});
  n.set_parent(0, 0);
  n.set_children(0, {8});
  Outbox out;
  out.wire(n);
  n.observe_slot(0, kT, 20.0, 0);
  n.handle(Message{UpdateMessage{8, 0, kT, 100.0, 110.0, true}}, 8, 0);
  const std::size_t before = out.update_count();
  n.on_child_lost(0, 8, 1);
  EXPECT_EQ(out.update_count(), before + 1);  // shrunk aggregate relayed
  EXPECT_DOUBLE_EQ(out.last_update().max, 20.0 + 1.1);
  EXPECT_TRUE(n.children(0).empty());
}

TEST(DirqNode, ForceReannounceResendsEverything) {
  DirqNode n = make_node(5, {kT, kH});
  n.set_parent(0, 0);
  Outbox out;
  out.wire(n);
  n.observe_slot(0, kT, 20.0, 0);
  n.observe_slot(0, kH, 60.0, 0);
  const std::size_t before = out.update_count();
  n.set_parent(0, 3);  // re-parented by tree repair
  n.force_reannounce(0, 1);
  EXPECT_EQ(out.update_count(), before + 2);  // both tables re-sent
  EXPECT_EQ(out.unicasts.back().to, 3u);
}

TEST(DirqNode, DetachSensorRetractsOwnTupleOnly) {
  DirqNode n = make_node(5, {kT});
  n.set_parent(0, 0);
  n.set_children(0, {8});
  Outbox out;
  out.wire(n);
  n.observe_slot(0, kT, 20.0, 0);
  n.handle(Message{UpdateMessage{8, 0, kT, 30.0, 32.0, true}}, 8, 0);
  n.detach_sensor(kT, 1);
  const RangeTable* t = n.table(0, kT);
  ASSERT_NE(t, nullptr);  // child entry keeps the table alive (Fig. 4)
  EXPECT_FALSE(t->own().has_value());
  // A later sample for the detached type is ignored.
  const std::size_t before = out.update_count();
  n.observe_slot(0, kT, 50.0, 2);
  EXPECT_EQ(out.update_count(), before);
}

TEST(DirqNode, SubtreeBoxJoinsChildren) {
  DirqNode n = make_node(5, {});
  n.set_position(1.0, 1.0);
  n.set_children(0, {8});
  n.handle(Message{LocationAnnounce{8, 0, net::BBox{3.0, 3.0, 4.0, 4.0}}}, 8, 0);
  const net::BBox box = n.subtree_box(0);
  EXPECT_DOUBLE_EQ(box.min_x, 1.0);
  EXPECT_DOUBLE_EQ(box.max_x, 4.0);
}

TEST(DirqNode, LocationAnnounceDeduplicates) {
  DirqNode n = make_node(5, {});
  n.set_parent(0, 0);
  n.set_position(1.0, 1.0);
  Outbox out;
  out.wire(n);
  n.announce_location(0, 0);
  n.announce_location(0, 1);  // unchanged box: silent
  std::size_t loc_count = 0;
  for (const auto& s : out.unicasts) {
    if (std::holds_alternative<LocationAnnounce>(s.msg)) ++loc_count;
  }
  EXPECT_EQ(loc_count, 1u);
}

}  // namespace
}  // namespace dirq::core
