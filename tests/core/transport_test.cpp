// InstantTransport delivery semantics (who hears each frame; the network
// books the costs, tests/core/network_accounting_test.cpp) and its
// delivery contract; the metrics audit arithmetic.
#include "core/transport.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/dirq_node.hpp"
#include "metrics/audit.hpp"

namespace dirq::core {
namespace {

struct Capture final : MessageSink {
  struct Rec {
    NodeId to, from;
    Message msg;
  };
  std::vector<Rec> delivered;
  void deliver(NodeId to, NodeId from, const Message& msg) override {
    delivered.push_back({to, from, msg});
  }
  [[nodiscard]] std::vector<NodeId> receivers() const {
    std::vector<NodeId> out;
    for (const Rec& r : delivered) out.push_back(r.to);
    return out;
  }
};

net::Topology line(std::size_t n) {
  std::vector<net::Node> nodes(n);
  for (std::size_t i = 0; i < n; ++i) nodes[i].x = static_cast<double>(i);
  return net::Topology(std::move(nodes), 1.1);
}

Message update_msg() { return Message{UpdateMessage{}}; }
Message query_msg() { return Message{QueryMessage{}}; }
Message ehr_msg() { return Message{EhrMessage{}}; }

TEST(InstantTransport, UnicastDeliversToNeighbor) {
  net::Topology t = line(3);
  Capture cap;
  InstantTransport tr(t, cap);
  tr.unicast(0, 1, update_msg());
  ASSERT_EQ(cap.delivered.size(), 1u);
  EXPECT_EQ(cap.delivered[0].to, 1u);
  EXPECT_EQ(cap.delivered[0].from, 0u);
}

TEST(InstantTransport, UnicastToNonNeighborDeliversNothing) {
  net::Topology t = line(4);
  Capture cap;
  InstantTransport tr(t, cap);
  tr.unicast(0, 3, update_msg());
  EXPECT_TRUE(cap.delivered.empty());
}

TEST(InstantTransport, UnicastToDeadNodeIsLost) {
  net::Topology t = line(3);
  t.kill_node(1);
  Capture cap;
  InstantTransport tr(t, cap);
  tr.unicast(0, 1, update_msg());
  EXPECT_TRUE(cap.delivered.empty());
}

TEST(InstantTransport, MulticastReachesAddressedNeighbors) {
  // Star: 0 center.
  std::vector<net::Node> nodes(4);
  net::Topology t(nodes, {{0, 1}, {0, 2}, {0, 3}});
  Capture cap;
  InstantTransport tr(t, cap);
  const std::vector<NodeId> targets{1, 3};
  tr.multicast(0, targets, query_msg());
  EXPECT_EQ(cap.receivers(), targets);
}

TEST(InstantTransport, EmptyMulticastDeliversNothing) {
  net::Topology t = line(2);
  Capture cap;
  InstantTransport tr(t, cap);
  tr.multicast(0, {}, query_msg());
  EXPECT_TRUE(cap.delivered.empty());
}

TEST(InstantTransport, MulticastSkipsDeadTargets) {
  std::vector<net::Node> nodes(4);
  net::Topology t(nodes, {{0, 1}, {0, 2}, {0, 3}});
  t.kill_node(2);
  Capture cap;
  InstantTransport tr(t, cap);
  const std::vector<NodeId> targets{1, 2, 3};
  tr.multicast(0, targets, query_msg());
  EXPECT_EQ(cap.receivers(), (std::vector<NodeId>{1, 3}));
}

TEST(InstantTransport, BroadcastReachesAllAliveNeighbors) {
  net::Topology t = line(3);
  Capture cap;
  InstantTransport tr(t, cap);
  tr.broadcast(1, ehr_msg());
  EXPECT_EQ(cap.receivers(), (std::vector<NodeId>{0, 2}));
}

TEST(InstantTransport, RoutingBooksNothing) {
  // The transport only routes; its ledger is the network's to write.
  net::Topology t = line(3);
  Capture cap;
  InstantTransport tr(t, cap);
  tr.unicast(0, 1, update_msg());
  tr.multicast(1, std::vector<NodeId>{0, 2}, query_msg());
  tr.broadcast(1, ehr_msg());
  EXPECT_EQ(cap.delivered.size(), 5u);
  EXPECT_EQ(tr.costs().total(), 0);
}

/// A sink that breaks the delivery contract: its first reception kills
/// `victim` (or, with kNoNode, adds a node).
struct MutatingSink final : MessageSink {
  net::Topology& topo;
  NodeId victim;
  std::size_t delivered = 0;
  MutatingSink(net::Topology& t, NodeId v) : topo(t), victim(v) {}
  void deliver(NodeId /*to*/, NodeId /*from*/,
               const Message& /*msg*/) override {
    if (delivered++ > 0) return;
    if (victim == kNoNode) {
      net::Node n;  // id kNoNode: appended, not a revival
      n.x = 50.0;
      topo.add_node(n);
    } else {
      topo.kill_node(victim);
    }
  }
};

TEST(InstantTransport, MulticastThrowsWhenADeliveryKillsANode) {
  std::vector<net::Node> nodes(4);
  net::Topology t(nodes, {{0, 1}, {0, 2}, {0, 3}});
  MutatingSink sink(t, 3);
  InstantTransport tr(t, sink);
  const std::vector<NodeId> targets{1, 2, 3};
  EXPECT_THROW(tr.multicast(0, targets, query_msg()), std::logic_error);
  EXPECT_EQ(sink.delivered, 1u);  // no reception after the one that broke it
}

TEST(InstantTransport, BroadcastThrowsWhenADeliveryAddsANode) {
  net::Topology t = line(3);
  MutatingSink sink(t, kNoNode);
  InstantTransport tr(t, sink);
  EXPECT_THROW(tr.broadcast(1, ehr_msg()), std::logic_error);
  EXPECT_EQ(sink.delivered, 1u);
  EXPECT_EQ(t.size(), 4u);
}

/// Hands every reception to the DirqNode of the recipient.
struct NodeSink final : MessageSink {
  std::vector<DirqNode>* nodes = nullptr;
  void deliver(NodeId to, NodeId from, const Message& msg) override {
    (*nodes)[to].handle(msg, from, 0);
  }
};

TEST(InstantTransport, ForwardingCycleThrowsInsteadOfRecursing) {
  // Two nodes that each hold the other as a child with a range the query
  // overlaps: tree state that diverged into a forwarding cycle.
  net::Topology t = line(2);
  NodeSink sink;
  InstantTransport tr(t, sink);
  std::vector<DirqNode> nodes;
  for (NodeId u = 0; u < 2; ++u) {
    nodes.emplace_back(u, std::vector<SensorType>{kSensorTemperature},
                       std::make_unique<FixedTheta>(5.0));
  }
  sink.nodes = &nodes;
  for (NodeId u = 0; u < 2; ++u) {
    const NodeId other = 1 - u;
    nodes[u].set_children(0, {other});
    nodes[u].set_multicast([&tr](NodeId from, const std::vector<NodeId>& to,
                                 const Message& msg) {
      tr.multicast(from, to, msg);
    });
    UpdateMessage up;
    up.from = other;
    up.type = kSensorTemperature;
    up.min = 10.0;
    up.max = 20.0;
    nodes[u].handle(Message{up}, other, 0);
  }
  const Message q{
      QueryMessage{query::RangeQuery(1, kSensorTemperature, 12.0, 15.0, 0), 0}};
  EXPECT_THROW(nodes[0].handle(q, kNoNode, 0), std::logic_error);
  // The throw left no node marked as forwarding: with the cycle cut,
  // the same query runs 0 -> 1 and stops.
  nodes[1].on_child_lost(0, 0, 0);
  EXPECT_NO_THROW(nodes[0].handle(q, kNoNode, 0));
}

}  // namespace
}  // namespace dirq::core

namespace dirq::metrics {
namespace {

TEST(Audit, DisjointSets) {
  const std::vector<NodeId> should{1, 2, 3};
  const std::vector<NodeId> received{4, 5};
  const QueryAudit a = audit_query(should, received);
  EXPECT_EQ(a.correct, 0u);
  EXPECT_EQ(a.wrong, 2u);
  EXPECT_EQ(a.missed, 3u);
  EXPECT_NEAR(a.overshoot_pct(), 200.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(a.coverage_pct(), 0.0);
}

TEST(Audit, PerfectDelivery) {
  const std::vector<NodeId> nodes{1, 2, 3, 4};
  const QueryAudit a = audit_query(nodes, nodes);
  EXPECT_EQ(a.wrong, 0u);
  EXPECT_EQ(a.missed, 0u);
  EXPECT_DOUBLE_EQ(a.overshoot_pct(), 0.0);
  EXPECT_DOUBLE_EQ(a.reach_ratio_pct(), 100.0);
  EXPECT_DOUBLE_EQ(a.coverage_pct(), 100.0);
}

TEST(Audit, OvershootCounting) {
  const std::vector<NodeId> should{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const std::vector<NodeId> received{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  const QueryAudit a = audit_query(should, received);
  EXPECT_EQ(a.wrong, 1u);
  EXPECT_DOUBLE_EQ(a.overshoot_pct(), 10.0);
  EXPECT_DOUBLE_EQ(a.reach_ratio_pct(), 110.0);
}

TEST(Audit, EmptyShouldSet) {
  const std::vector<NodeId> received{1};
  const QueryAudit a = audit_query({}, received);
  EXPECT_DOUBLE_EQ(a.overshoot_pct(), 0.0);
  EXPECT_DOUBLE_EQ(a.coverage_pct(), 100.0);
  EXPECT_EQ(a.wrong, 1u);
}

TEST(Audit, EmptyBothIsClean) {
  const QueryAudit a = audit_query({}, {});
  EXPECT_DOUBLE_EQ(a.overshoot_pct(), 0.0);
  EXPECT_DOUBLE_EQ(a.reach_ratio_pct(), 100.0);
}

TEST(Audit, PartialOverlap) {
  const std::vector<NodeId> should{2, 4, 6, 8};
  const std::vector<NodeId> received{4, 5, 8, 9};
  const QueryAudit a = audit_query(should, received);
  EXPECT_EQ(a.correct, 2u);
  EXPECT_EQ(a.wrong, 2u);
  EXPECT_EQ(a.missed, 2u);
  EXPECT_DOUBLE_EQ(a.coverage_pct(), 50.0);
}

}  // namespace
}  // namespace dirq::metrics
