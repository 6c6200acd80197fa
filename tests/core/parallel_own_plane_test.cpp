// The own-tuple plane of the epoch engine (here at fixed theta, gate off):
// readings inside a node's own tuple skip DirqNode::observe_slot, so the
// plane must agree with RangeTable::observe's inside test on every
// edge — a reading exactly on r0 - theta or r0 + theta (inside), one ulp
// beyond either bound (a crossing), +-inf (a crossing, then inside the
// degenerate [inf, inf] tuple) and NaN (always a crossing) — and must be
// re-read after every sensor change, death and revival. Networks at 2 and
// 4 threads are compared with the 1-thread plan (one chunk) after every
// epoch, in the subtree geometry (1 sink, plus the root segment) and the
// tree-shard geometry (4 sinks). A second script pins the order in which
// the crossing sweep runs an epoch's crossings: one node crosses on two
// types and its parent crosses too, over a lossy channel whose verdicts
// depend on the order of messages on each link — at 1 sink, 4 sinks and
// on LMAC with 2 sinks (the one-chunk plan on the caller at every width,
// beside a pool-parallel fetch).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/atc.hpp"
#include "core/lmac_transport.hpp"
#include "core/lossy.hpp"
#include "core/network.hpp"
#include "data/reading_source.hpp"
#include "mac/lmac.hpp"
#include "net/placement.hpp"
#include "net/topology.hpp"
#include "sim/counter_rng.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace dirq::core {
namespace {

constexpr std::size_t kTypes = 3;
constexpr std::int64_t kEpochs = 64;
constexpr double kThetaPct = 5.0;
constexpr double kInf = std::numeric_limits<double>::infinity();

double theta(SensorType t) { return kThetaPct / 100.0 * nominal_span(t); }

/// Replays a per-(node, type) script that probes the own tuple's edges.
/// The script tracks the tuple the node would hold (observe's rule), so
/// boundary readings land exactly on it; every cycle opens with a far
/// jump, which re-synchronises the script with the node after a sensor
/// change or a death left the two apart.
class ScriptedSource final : public data::ReadingSource {
 public:
  explicit ScriptedSource(std::size_t nodes)
      : nodes_(nodes), values_(kEpochs * kTypes * nodes) {
    for (std::size_t u = 0; u < nodes; ++u) {
      for (std::size_t t = 0; t < kTypes; ++t) script(u, t);
    }
  }

  void advance_to(std::int64_t epoch) override { epoch_ = epoch; }
  [[nodiscard]] double reading(NodeId node, SensorType type) const override {
    if (node >= nodes_ || type >= kTypes) {
      throw std::out_of_range("ScriptedSource: unknown node or type");
    }
    return values_.at(index(epoch_, node, type));
  }
  [[nodiscard]] std::size_t type_count() const override { return kTypes; }
  [[nodiscard]] std::int64_t epoch() const override { return epoch_; }

 private:
  [[nodiscard]] std::size_t index(std::int64_t e, std::size_t u,
                                  std::size_t t) const {
    return (static_cast<std::size_t>(e) * kTypes + t) * nodes_ + u;
  }

  void script(std::size_t u, std::size_t t) {
    const auto type = static_cast<SensorType>(t);
    const double th = theta(type);
    const double base = 10.0 + 0.37 * static_cast<double>(u) + 3.0 * t;
    double lo = 0.0, hi = 0.0;
    bool has = false;
    constexpr std::int64_t kCycle = 15;
    const std::int64_t phase = static_cast<std::int64_t>(u * 7 + t * 3);
    for (std::int64_t e = 0; e < kEpochs; ++e) {
      const std::int64_t step = (e + phase) % kCycle;
      const std::int64_t cycle = (e + phase) / kCycle;
      double r = base;
      switch (step) {
        case 0: r = base + (cycle % 2 == 0 ? 5.0 : -5.0) * th; break;
        case 1: r = lo; break;                                 // r0 - theta
        case 2: r = hi; break;                                 // r0 + theta
        case 3: r = std::nextafter(lo, -kInf); break;          // 1 ulp below
        case 4: r = hi; break;
        case 5: r = std::nextafter(hi, kInf); break;           // 1 ulp above
        case 6: r = lo; break;
        case 7: r = kInf; break;
        case 8: r = kInf; break;                               // [inf, inf]
        case 9: r = -kInf; break;
        case 10: r = -kInf; break;
        case 11: r = std::numeric_limits<double>::quiet_NaN(); break;
        case 12: r = std::numeric_limits<double>::quiet_NaN(); break;
        case 13: r = base; break;
        default: r = base + 0.5 * th; break;
      }
      values_[index(e, u, t)] = r;
      if (!(has && r >= lo && r <= hi)) {  // RangeTable::observe
        lo = r - th;
        hi = r + th;
        has = true;
      }
    }
  }

  std::size_t nodes_;
  std::vector<double> values_;
  std::int64_t epoch_ = 0;
};

net::Topology make_topology() {
  sim::Rng rng(2024);
  net::RandomPlacementConfig placement;
  placement.node_count = 40;
  placement.sensor_type_count = kTypes;
  net::Topology topo = net::random_connected(placement, rng);
  // The gateway carries no sensor by default; give it two so the subtree
  // geometry's root segment consumes through the plane too.
  topo.add_sensor(0, 0);
  topo.add_sensor(0, 2);
  return topo;
}

/// One network under test with its own topology (churn mutates both).
struct World {
  net::Topology topo = make_topology();
  std::unique_ptr<DirqNetwork> net;

  World(const std::vector<NodeId>& roots, unsigned threads) {
    NetworkConfig cfg;
    cfg.mode = NetworkConfig::ThetaMode::Fixed;
    cfg.fixed_pct = kThetaPct;
    net = std::make_unique<DirqNetwork>(topo, roots, cfg);
    net->set_threads(threads);
  }
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_ledgers_equal(const CostLedger& a, const CostLedger& b,
                          const std::string& where) {
  EXPECT_EQ(a.query_tx, b.query_tx) << where;
  EXPECT_EQ(a.query_rx, b.query_rx) << where;
  EXPECT_EQ(a.update_tx, b.update_tx) << where;
  EXPECT_EQ(a.update_rx, b.update_rx) << where;
  EXPECT_EQ(a.control_tx, b.control_tx) << where;
  EXPECT_EQ(a.control_rx, b.control_rx) << where;
}

void expect_same_state(const DirqNetwork& seq, const DirqNetwork& par,
                       const std::string& where) {
  ASSERT_EQ(seq.size(), par.size()) << where;
  EXPECT_EQ(seq.updates_transmitted(), par.updates_transmitted()) << where;
  EXPECT_EQ(seq.samples_taken(), par.samples_taken()) << where;
  expect_ledgers_equal(seq.costs(), par.costs(), where + " global ledger");
  for (TreeId k = 0; k < seq.tree_count(); ++k) {
    expect_ledgers_equal(seq.tree_ledger(k), par.tree_ledger(k),
                         where + " tree " + std::to_string(k));
  }
  for (NodeId u = 0; u < seq.size(); ++u) {
    EXPECT_EQ(seq.node_tx(u), par.node_tx(u)) << where << " node " << u;
    EXPECT_EQ(seq.node_rx(u), par.node_rx(u)) << where << " node " << u;
    for (TreeId k = 0; k < seq.tree_count(); ++k) {
      for (SensorType t = 0; t < kTypes; ++t) {
        const RangeTable* a = seq.node(u).table(k, t);
        const RangeTable* b = par.node(u).table(k, t);
        const bool a_own = a != nullptr && a->own().has_value();
        const bool b_own = b != nullptr && b->own().has_value();
        ASSERT_EQ(a_own, b_own) << where << " node " << u << " tree " << k
                                << " type " << t;
        if (!a_own) continue;
        EXPECT_EQ(bits(a->own()->min), bits(b->own()->min))
            << where << " node " << u << " tree " << k << " type " << t;
        EXPECT_EQ(bits(a->own()->max), bits(b->own()->max))
            << where << " node " << u << " tree " << k << " type " << t;
      }
    }
  }
}

/// Every (node, tree, type) subtree aggregate, bitwise: what the node
/// last heard from its children, so a message dropped or reordered on
/// any link shows up at the receiver.
void expect_same_aggregates(const DirqNetwork& seq, const DirqNetwork& par,
                            const std::string& where) {
  for (NodeId u = 0; u < seq.size(); ++u) {
    for (TreeId k = 0; k < seq.tree_count(); ++k) {
      for (SensorType t = 0; t < kTypes; ++t) {
        const RangeTable* a = seq.node(u).table(k, t);
        const RangeTable* b = par.node(u).table(k, t);
        const RangeAggregate x = a != nullptr ? a->aggregate() : std::nullopt;
        const RangeAggregate y = b != nullptr ? b->aggregate() : std::nullopt;
        ASSERT_EQ(x.has_value(), y.has_value())
            << where << " node " << u << " tree " << k << " type " << t;
        if (!x.has_value()) continue;
        EXPECT_EQ(bits(x->min), bits(y->min))
            << where << " node " << u << " tree " << k << " type " << t;
        EXPECT_EQ(bits(x->max), bits(y->max))
            << where << " node " << u << " tree " << k << " type " << t;
      }
    }
  }
}

/// Runs the sequential reference and `threads`-thread twins epoch by
/// epoch through the scripted readings and the churn schedule.
void run_case(const std::vector<NodeId>& roots) {
  World ref(roots, 1);
  World two(roots, 2);
  World four(roots, 4);
  ASSERT_EQ(two.net->threads(), 2u);
  ASSERT_EQ(four.net->threads(), 4u);
  ScriptedSource env(ref.topo.size());

  // Churn targets, chosen on the reference topology (all three are
  // identical): a sensor-rich node, a node lacking type 1, and an
  // internal non-root relay of tree 0.
  NodeId rich = kNoNode, lacking = kNoNode, relay = kNoNode;
  for (NodeId u = 1; u < ref.topo.size(); ++u) {
    const auto& s = ref.topo.node(u).sensors;
    if (rich == kNoNode && s.size() >= 2) rich = u;
    if (lacking == kNoNode && u != rich &&
        !std::binary_search(s.begin(), s.end(), SensorType{1})) {
      lacking = u;
    }
    const bool is_root =
        std::find(roots.begin(), roots.end(), u) != roots.end();
    if (relay == kNoNode && !is_root && u != rich && u != lacking &&
        !ref.net->node(u).children(0).empty()) {
      relay = u;
    }
  }
  ASSERT_NE(rich, kNoNode);
  ASSERT_NE(lacking, kNoNode);
  ASSERT_NE(relay, kNoNode);
  const SensorType dropped = ref.topo.node(rich).sensors.front();
  const net::Node relay_info = ref.topo.node(relay);

  bool saw_inf = false, saw_nan = false;
  for (std::int64_t e = 0; e < kEpochs; ++e) {
    for (World* w : {&ref, &two, &four}) {
      net::Topology& topo = w->topo;
      DirqNetwork& n = *w->net;
      if (e == 12) {
        topo.remove_sensor(rich, dropped);
        n.handle_sensor_removed(rich, dropped, e);
      } else if (e == 20) {
        topo.add_sensor(rich, dropped);
        n.handle_sensor_added(rich, dropped, e);
      } else if (e == 24) {
        topo.add_sensor(lacking, 1);
        n.handle_sensor_added(lacking, 1, e);
      } else if (e == 28) {
        topo.kill_node(relay);
        n.handle_node_death(relay, e);
      } else if (e == 40) {
        net::Node revived = relay_info;
        revived.id = relay;
        topo.add_node(revived);
        n.handle_node_addition(relay, e);
      }
    }
    env.advance_to(e);
    for (World* w : {&ref, &two, &four}) w->net->process_epoch(env, e);
    const std::string at = "epoch " + std::to_string(e);
    expect_same_state(*ref.net, *two.net, at + " threads 2");
    expect_same_state(*ref.net, *four.net, at + " threads 4");
    if (::testing::Test::HasFailure()) return;
    for (NodeId u = 0; u < ref.net->size(); ++u) {
      for (SensorType t = 0; t < kTypes; ++t) {
        const RangeTable* table = ref.net->node(u).table(0, t);
        if (table == nullptr || !table->own().has_value()) continue;
        saw_inf |= std::isinf(table->own()->min);
        saw_nan |= std::isnan(table->own()->min);
      }
    }
  }
  // The script really reached the degenerate tuples and moved updates.
  EXPECT_TRUE(saw_inf);
  EXPECT_TRUE(saw_nan);
  EXPECT_GT(ref.net->updates_transmitted(), 0);
}

TEST(ParallelOwnPlane, SubtreeShardsMatchSequentialOnTupleEdges) {
  run_case({0});
}

TEST(ParallelOwnPlane, TreeShardsMatchSequentialOnTupleEdges) {
  run_case({0, 10, 20, 30});
}

TEST(ParallelOwnPlane, ScriptHitsEveryEdge) {
  // The boundary readings are exact: on the one-thread walk a reading on
  // either bound leaves the own tuple untouched, and one ulp past a bound
  // re-centres it.
  net::Topology topo = make_topology();
  NetworkConfig cfg;
  cfg.fixed_pct = kThetaPct;
  DirqNetwork net(topo, NodeId{0}, cfg);
  ScriptedSource env(topo.size());
  const NodeId u = 1;
  const SensorType t = topo.node(u).sensors.front();
  const auto phase = static_cast<std::int64_t>(u * 7 + t * 3);
  std::int64_t cycle_start = 1;
  while ((cycle_start + phase) % 15 != 0) ++cycle_start;
  RangeEntry prev;
  for (std::int64_t e = 0; e <= cycle_start + 6; ++e) {
    env.advance_to(e);
    net.process_epoch(env, e);
    const RangeTable* table = net.node(u).table(t);
    ASSERT_NE(table, nullptr);
    ASSERT_TRUE(table->own().has_value());
    const RangeEntry own = *table->own();
    const std::int64_t step = e - cycle_start;
    if (step >= 1) {
      // Steps 1, 2, 4, 6 sit on a bound; 3 and 5 are one ulp outside.
      const bool recentred = step == 3 || step == 5;
      EXPECT_EQ(own.min != prev.min, recentred) << "step " << step;
      EXPECT_EQ(own.max != prev.max, recentred) << "step " << step;
    }
    prev = own;
  }
}

// --- crossing order ----------------------------------------------------------

constexpr std::int64_t kOrderEpochs = 40;

/// Constant readings, except at every scripted epoch (e % 3 == 2) where
/// each scripted (node, type) steps by its amplitude, alternately up and
/// down. Between steps every reading sits at the centre of its own tuple,
/// so the scripted steps are the only crossings after epoch 0.
class StepSource final : public data::ReadingSource {
 public:
  struct Step {
    NodeId node;
    SensorType type;
    double thetas;  // amplitude in units of theta(type)
  };

  StepSource(std::size_t nodes, std::vector<Step> steps)
      : nodes_(nodes), steps_(std::move(steps)) {}

  void advance_to(std::int64_t epoch) override { epoch_ = epoch; }
  [[nodiscard]] double reading(NodeId node, SensorType type) const override {
    if (node >= nodes_ || type >= kTypes) {
      throw std::out_of_range("StepSource: unknown node or type");
    }
    double r = 10.0 + 0.37 * static_cast<double>(node) + 3.0 * type;
    const bool up = epoch_ >= 2 && ((epoch_ - 2) / 3) % 2 == 0;
    for (const Step& s : steps_) {
      if (s.node == node && s.type == type && up) r += s.thetas * theta(type);
    }
    return r;
  }
  [[nodiscard]] std::size_t type_count() const override { return kTypes; }
  [[nodiscard]] std::int64_t epoch() const override { return epoch_; }

 private:
  std::size_t nodes_;
  std::vector<Step> steps_;
  std::int64_t epoch_ = 0;
};

/// One network under test over a lossy channel, optionally on LMAC.
struct OrderWorld {
  net::Topology topo = make_topology();
  std::unique_ptr<DirqNetwork> net;
  LossChannel loss{0.5, sim::CounterRng(77).substream("loss")};
  sim::Scheduler sched;
  mac::LmacConfig mac_cfg;
  std::unique_ptr<mac::LmacNetwork> mac;
  std::unique_ptr<LmacTransport> transport;

  OrderWorld(const std::vector<NodeId>& roots, unsigned threads, bool lmac) {
    NetworkConfig cfg;
    cfg.mode = NetworkConfig::ThetaMode::Fixed;
    cfg.fixed_pct = kThetaPct;
    net = std::make_unique<DirqNetwork>(topo, roots, cfg);
    net->set_loss(&loss);
    if (lmac) {
      mac_cfg.slots_per_frame = 64;
      mac_cfg.ticks_per_slot = 16;
      mac = std::make_unique<mac::LmacNetwork>(sched, topo, mac_cfg);
      transport = std::make_unique<LmacTransport>(*mac, *net);
      transport->mutable_costs() = net->costs();
      net->use_transport(*transport);
      mac->start();
    }
    net->set_threads(threads);
  }

  void epoch(const data::ReadingSource& env, std::int64_t e) {
    net->process_epoch(env, e);
    if (mac) sched.run_until((e + 1) * mac_cfg.frame_ticks() - 1);
  }
};

/// Runs the step script at 1, 2 and 4 threads and compares after every
/// epoch. The mover (a non-root node with two types) crosses on both, and
/// its tree-0 parent crosses on one of them: the parent's uplink then
/// carries two relays and its own update in one epoch, and the per-link
/// drop verdicts make their order observable.
void run_order_case(const std::vector<NodeId>& roots, bool lmac) {
  OrderWorld ref(roots, 1, lmac);
  OrderWorld two(roots, 2, lmac);
  OrderWorld four(roots, 4, lmac);
  ASSERT_EQ(two.net->threads(), 2u);
  ASSERT_EQ(four.net->threads(), 4u);

  const auto is_root = [&](NodeId u) {
    return std::find(roots.begin(), roots.end(), u) != roots.end();
  };
  NodeId mover = kNoNode, parent = kNoNode;
  SensorType shared = 0, other = 0;
  for (NodeId u = 1; u < ref.topo.size() && mover == kNoNode; ++u) {
    const auto& s = ref.topo.node(u).sensors;
    const NodeId p = ref.net->node(u).parent(0);
    if (s.size() < 2 || is_root(u) || p == kNoNode || is_root(p)) continue;
    const auto& ps = ref.topo.node(p).sensors;
    for (SensorType t : s) {
      if (std::binary_search(ps.begin(), ps.end(), t)) {
        mover = u;
        parent = p;
        shared = t;
        other = s.front() != t ? s.front() : s.back();
        break;
      }
    }
  }
  ASSERT_NE(mover, kNoNode);
  // The gateway carries types 0 and 2 (make_topology); it steps too, so
  // the 1-sink root segment runs crossings.
  StepSource env(ref.topo.size(), {{mover, shared, 20.0},
                                   {mover, other, 20.0},
                                   {parent, shared, 40.0},
                                   {0, 0, 40.0},
                                   {0, 2, 40.0}});

  std::int64_t mover_moves = 0, parent_moves = 0;
  for (std::int64_t e = 0; e < kOrderEpochs; ++e) {
    const RangeEntry mover_before =
        ref.net->node(mover).table(0, other) != nullptr &&
                ref.net->node(mover).table(0, other)->own()
            ? *ref.net->node(mover).table(0, other)->own()
            : RangeEntry{};
    const RangeEntry parent_before =
        ref.net->node(parent).table(0, shared) != nullptr &&
                ref.net->node(parent).table(0, shared)->own()
            ? *ref.net->node(parent).table(0, shared)->own()
            : RangeEntry{};
    env.advance_to(e);
    for (OrderWorld* w : {&ref, &two, &four}) w->epoch(env, e);
    const std::string at = "epoch " + std::to_string(e);
    for (OrderWorld* w : {&two, &four}) {
      const std::string who =
          at + " threads " + std::to_string(w->net->threads());
      expect_same_state(*ref.net, *w->net, who);
      expect_same_aggregates(*ref.net, *w->net, who);
      EXPECT_EQ(ref.loss.offered(), w->loss.offered()) << who;
      EXPECT_EQ(ref.loss.dropped(), w->loss.dropped()) << who;
    }
    if (::testing::Test::HasFailure()) return;
    if (e > 0) {
      mover_moves += ref.net->node(mover).table(0, other)->own()->min !=
                     mover_before.min;
      parent_moves += ref.net->node(parent).table(0, shared)->own()->min !=
                      parent_before.min;
    }
  }
  // The script crossed where it meant to, and the channel dropped frames.
  const std::int64_t steps = (kOrderEpochs - 2 + 2) / 3;
  EXPECT_EQ(mover_moves, steps);
  EXPECT_EQ(parent_moves, steps);
  EXPECT_GT(ref.loss.dropped(), 0);
}

TEST(ParallelOwnPlane, CrossingOrderSubtreeShardsAndRootPass) {
  run_order_case({0}, false);
}

TEST(ParallelOwnPlane, CrossingOrderTreeShards) {
  run_order_case({0, 10, 20, 30}, false);
}

TEST(ParallelOwnPlane, CrossingOrderLmacOneChunk) {
  run_order_case({0, 20}, true);
}

}  // namespace
}  // namespace dirq::core
