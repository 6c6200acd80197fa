// The epoch engine against the reference walk (tests/support/
// reference_walk.hpp), epoch by epoch. Every cell runs one network driven
// by the reference walk and three driven by DirqNetwork::process_epoch at
// 1, 2 and 4 threads, through the same script: a jumpy field (below),
// loss 0.1 (set_loss), EHr
// floods every 50 epochs, a query every 20 epochs, and churn through the
// handle_* entry points — a relay dies, a sensor is removed from a node
// only (the topology keeps listing it, so the plan holds a slot whose
// node lacks the type), another is removed from both, one is added, a
// brand-new node joins. On the instant transport one epoch runs
// inside an open inject_async audit; on LMAC every query is collected at
// the next query boundary, so epochs run inside open audits throughout.
// The readings are the pinned field plus a square wave on a third of the
// (node, type) pairs, so a reading leaves its tuple and later returns into
// the one it left — the case a stale own-tuple plane entry gets wrong.
//
// Cells: sinks {1, 3} x {fixed theta 5 %, ATC} x gate {off, margin 0.5} x
// {instant, LMAC}. Every cell consumes through the crossing sweep; the
// ATC cells add its per-reading pass and the adjust events, the gated
// cells the compacted due readings and the lead's gate passes, and the
// widths cover every plan geometry (one chunk, root-child subtrees plus
// the serial root segment, one task per tree); LMAC cells run the one
// chunk at every width beside a pool-parallel fetch.
//
// After every epoch each engine network must equal the reference on:
// per-node tx/rx, the global and per-tree ledgers, update count, samples
// taken and skipped, loss-channel tallies, and every (node, tree, type)
// own tuple, subtree aggregate and theta, bitwise — theta is what ATC
// moves, so a diverging adjust shows the epoch it happens, not once it
// has moved a tuple. Every QueryOutcome must match.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/atc.hpp"
#include "core/lmac_transport.hpp"
#include "core/lossy.hpp"
#include "core/network.hpp"
#include "data/field_model.hpp"
#include "data/reading_source.hpp"
#include "mac/lmac.hpp"
#include "net/placement.hpp"
#include "net/topology.hpp"
#include "net/tree_set.hpp"
#include "query/workload.hpp"
#include "sim/counter_rng.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "support/reference_walk.hpp"

namespace dirq::core {
namespace {

constexpr std::size_t kNodes = 40;
constexpr std::size_t kTypes = 4;
constexpr std::int64_t kEpochs = 150;
constexpr std::int64_t kQueryPeriod = 20;
constexpr std::int64_t kEhrPeriod = 50;
constexpr std::int64_t kAuditEpoch = 100;  // instant: a query left open
constexpr std::int64_t kKillEpoch = 35;
constexpr std::int64_t kNodeSensorOffEpoch = 45;  // node only, not topology
constexpr std::int64_t kSensorOffEpoch = 55;
constexpr std::int64_t kSensorOnEpoch = 70;
constexpr std::int64_t kJoinEpoch = 85;
constexpr double kLoss = 0.1;
constexpr std::uint64_t kSeed = 17;

struct Cell {
  std::size_t sinks;
  bool atc;
  bool gated;
  bool lmac;
};

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  const Cell& c = info.param;
  return std::string(c.lmac ? "lmac" : "instant") + "_sinks" +
         std::to_string(c.sinks) + (c.atc ? "_atc" : "_fixed") +
         (c.gated ? "_gated" : "_ungated");
}

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (bool lmac : {false, true}) {
    for (std::size_t sinks : {std::size_t{1}, std::size_t{3}}) {
      for (bool atc : {false, true}) {
        for (bool gated : {false, true}) {
          cells.push_back({sinks, atc, gated, lmac});
        }
      }
    }
  }
  return cells;
}

net::Topology make_topology() {
  sim::Rng rng(kSeed);
  net::RandomPlacementConfig placement;
  placement.node_count = kNodes;
  placement.sensor_type_count = kTypes;
  return net::random_connected(placement, rng);
}

/// The pinned field plus a square wave of 0.15 x the type's span (wider
/// than any ATC theta) that switches every 4 epochs on the (node, type)
/// pairs with (node + type) % 3 == 0.
class JumpyField final : public data::ReadingSource {
 public:
  explicit JumpyField(const net::Topology& topo)
      : inner_(topo, kTypes, sim::Rng(kSeed).substream("env")) {}

  void advance_to(std::int64_t epoch) override { inner_.advance_to(epoch); }
  [[nodiscard]] double reading(NodeId node, SensorType type) const override {
    const bool up = (node + type) % 3 == 0 && (inner_.epoch() / 4) % 2 == 1;
    return inner_.reading(node, type) + (up ? 0.15 * nominal_span(type) : 0.0);
  }
  [[nodiscard]] bool concurrent_type_batches() const noexcept override {
    return inner_.concurrent_type_batches();
  }
  [[nodiscard]] std::size_t type_count() const override { return kTypes; }
  [[nodiscard]] std::int64_t epoch() const override { return inner_.epoch(); }

 private:
  data::Environment inner_;
};

NetworkConfig network_config(const Cell& c) {
  NetworkConfig cfg;
  cfg.mode = c.atc ? NetworkConfig::ThetaMode::Atc
                   : NetworkConfig::ThetaMode::Fixed;
  cfg.fixed_pct = 5.0;
  cfg.sampling.enabled = c.gated;
  cfg.sampling.margin_frac = 0.5;
  return cfg;
}

/// One network under test with everything it owns: its topology (churn
/// mutates it), environment, loss channel and, on LMAC, the MAC stack.
struct World {
  net::Topology topo = make_topology();
  JumpyField env{topo};
  LossChannel loss{kLoss, sim::CounterRng(kSeed).substream("loss")};
  std::unique_ptr<DirqNetwork> net;
  sim::Scheduler sched;
  std::unique_ptr<mac::LmacNetwork> mac;
  std::unique_ptr<LmacTransport> transport;
  std::set<NodeId> repaired;
  std::int64_t epoch = 0;
  std::optional<ReferenceWalk> reference;  // set: the oracle world

  World(const Cell& c, const std::vector<NodeId>& roots, unsigned threads,
        bool is_reference) {
    const NetworkConfig cfg = network_config(c);
    net = std::make_unique<DirqNetwork>(topo, roots, cfg);
    net->set_loss(&loss);
    if (is_reference) {
      reference.emplace(cfg.sampling);
    } else {
      net->set_threads(threads);
    }
    if (c.lmac) {
      mac = std::make_unique<mac::LmacNetwork>(sched, topo, mac::LmacConfig{});
      transport = std::make_unique<LmacTransport>(*mac, *net);
      transport->mutable_costs() = net->costs();
      net->use_transport(*transport);
      transport->set_on_neighbor_lost([this](NodeId, NodeId dead) {
        if (repaired.insert(dead).second) net->handle_node_death(dead, epoch);
      });
      mac->start();
    }
  }

  void run_epoch(std::int64_t e) {
    epoch = e;
    env.advance_to(e);
    if (reference) {
      reference->epoch(*net, topo, env, e);
    } else {
      net->process_epoch(env, e);
    }
  }

  /// After the epoch's queries: one LMAC frame of slot delivery.
  void finish_epoch(std::int64_t e) {
    if (mac) sched.run_until((e + 1) * mac::LmacConfig{}.frame_ticks() - 1);
  }

  [[nodiscard]] std::int64_t samples_taken() const {
    return reference ? reference->samples_taken() : net->samples_taken();
  }
  [[nodiscard]] std::int64_t samples_skipped() const {
    return reference ? reference->samples_skipped() : net->samples_skipped();
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

void expect_same_entry(const std::optional<RangeEntry>& a,
                       const std::optional<RangeEntry>& b,
                       const std::string& where) {
  ASSERT_EQ(a.has_value(), b.has_value()) << where;
  if (!a.has_value()) return;
  EXPECT_EQ(bits(a->min), bits(b->min)) << where;
  EXPECT_EQ(bits(a->max), bits(b->max)) << where;
}

void expect_same_state(const World& ref, const World& w,
                       const std::string& where) {
  const DirqNetwork& a = *ref.net;
  const DirqNetwork& b = *w.net;
  ASSERT_EQ(a.size(), b.size()) << where;
  EXPECT_EQ(a.updates_transmitted(), b.updates_transmitted()) << where;
  EXPECT_EQ(ref.samples_taken(), w.samples_taken()) << where;
  EXPECT_EQ(ref.samples_skipped(), w.samples_skipped()) << where;
  EXPECT_EQ(ref.loss.offered(), w.loss.offered()) << where;
  EXPECT_EQ(ref.loss.dropped(), w.loss.dropped()) << where;
  expect_ledgers_equal(a.costs(), b.costs(), where + " global ledger");
  for (TreeId k = 0; k < a.tree_count(); ++k) {
    expect_ledgers_equal(a.tree_ledger(k), b.tree_ledger(k),
                         where + " tree " + std::to_string(k));
  }
  for (NodeId u = 0; u < a.size(); ++u) {
    EXPECT_EQ(a.node_tx(u), b.node_tx(u)) << where << " node " << u;
    EXPECT_EQ(a.node_rx(u), b.node_rx(u)) << where << " node " << u;
    for (TreeId k = 0; k < a.tree_count(); ++k) {
      for (SensorType t = 0; t < kTypes; ++t) {
        const std::string at = where + " node " + std::to_string(u) +
                               " tree " + std::to_string(k) + " type " +
                               std::to_string(t);
        const RangeTable* x = a.node(u).table(k, t);
        const RangeTable* y = b.node(u).table(k, t);
        expect_same_entry(x != nullptr ? x->own() : std::nullopt,
                          y != nullptr ? y->own() : std::nullopt, at + " own");
        expect_same_entry(x != nullptr ? x->aggregate() : std::nullopt,
                          y != nullptr ? y->aggregate() : std::nullopt,
                          at + " aggregate");
        EXPECT_EQ(bits(a.node(u).controller(k).theta(t)),
                  bits(b.node(u).controller(k).theta(t)))
            << at << " theta";
      }
    }
  }
}

void expect_same_outcome(const QueryOutcome& a, const QueryOutcome& b,
                         const std::string& where) {
  EXPECT_EQ(a.id, b.id) << where;
  EXPECT_EQ(a.tree, b.tree) << where;
  EXPECT_EQ(a.received, b.received) << where;
  EXPECT_EQ(a.believed_sources, b.believed_sources) << where;
  EXPECT_EQ(a.cost, b.cost) << where;
}

class ReferenceWalkCell : public ::testing::TestWithParam<Cell> {};

TEST_P(ReferenceWalkCell, EngineMatchesReferenceEveryEpoch) {
  const Cell& c = GetParam();
  const net::Topology probe = make_topology();
  const std::vector<NodeId> roots = net::spread_roots(probe, c.sinks);

  std::vector<std::unique_ptr<World>> worlds;
  worlds.push_back(std::make_unique<World>(c, roots, 1, true));
  for (unsigned threads : {1u, 2u, 4u}) {
    worlds.push_back(std::make_unique<World>(c, roots, threads, false));
    ASSERT_EQ(worlds.back()->net->threads(), threads);
  }
  World& ref = *worlds.front();

  // Churn targets, chosen on the reference: an internal relay of tree 0
  // that is no sink, two nodes with two or more sensors, and one lacking
  // type 1.
  NodeId relay = kNoNode, rich = kNoNode, lacking = kNoNode, bare = kNoNode;
  for (NodeId u = 1; u < ref.topo.size(); ++u) {
    const bool is_root = std::find(roots.begin(), roots.end(), u) != roots.end();
    const auto& s = ref.topo.node(u).sensors;
    if (relay == kNoNode && !is_root && !ref.net->node(u).children(0).empty()) {
      relay = u;
    } else if (rich == kNoNode && s.size() >= 2) {
      rich = u;
    } else if (lacking == kNoNode &&
               !std::binary_search(s.begin(), s.end(), SensorType{1})) {
      lacking = u;
    } else if (bare == kNoNode && s.size() >= 2) {
      bare = u;
    }
  }
  ASSERT_NE(relay, kNoNode);
  ASSERT_NE(rich, kNoNode);
  ASSERT_NE(lacking, kNoNode);
  ASSERT_NE(bare, kNoNode);
  const SensorType dropped = ref.topo.node(rich).sensors.back();
  const SensorType unplugged = ref.topo.node(bare).sensors.front();
  net::Node newcomer;
  newcomer.x = ref.topo.node(rich).x + 1.0;
  newcomer.y = ref.topo.node(rich).y;
  newcomer.sensors = {0, 1};

  query::WorkloadGenerator workload(ref.topo, ref.net->tree(), ref.env,
                                    query::WorkloadConfig{0.4, 0.02},
                                    sim::Rng(kSeed).substream("workload"));
  std::optional<QueryId> open_query;  // audit left open by inject_async
  std::int64_t queries = 0;
  std::size_t reached = 0;  // deliveries over every reference outcome

  const auto collect = [&](const std::string& at) {
    std::vector<QueryOutcome> outs;
    for (auto& w : worlds) outs.push_back(w->net->collect_outcome());
    reached += outs[0].received.size();
    for (std::size_t i = 1; i < outs.size(); ++i) {
      expect_same_outcome(outs[0], outs[i],
                          at + " engine " + std::to_string(i));
    }
    open_query.reset();
  };

  for (std::int64_t e = 0; e < kEpochs; ++e) {
    for (auto& w : worlds) {
      net::Topology& topo = w->topo;
      DirqNetwork& n = *w->net;
      if (e == kKillEpoch) {
        topo.kill_node(relay);
        // LMAC detects the death through its control timeout instead.
        if (!c.lmac) n.handle_node_death(relay, e);
      } else if (e == kNodeSensorOffEpoch) {
        n.handle_sensor_removed(bare, unplugged, e);  // topology keeps it
      } else if (e == kSensorOffEpoch) {
        topo.remove_sensor(rich, dropped);
        n.handle_sensor_removed(rich, dropped, e);
      } else if (e == kSensorOnEpoch) {
        topo.add_sensor(lacking, 1);
        n.handle_sensor_added(lacking, 1, e);
      } else if (e == kJoinEpoch) {
        const NodeId id = topo.add_node(newcomer);
        n.handle_node_addition(id, e);
      }
      if (e % kEhrPeriod == 0) {
        for (TreeId k = 0; k < n.tree_count(); ++k) n.broadcast_ehr(k, 2.5, e);
      }
    }
    for (auto& w : worlds) w->run_epoch(e);
    const std::string at = "epoch " + std::to_string(e);
    if (open_query && !c.lmac) collect(at + " open audit");

    if (e > 0 && e % kQueryPeriod == 0) {
      if (open_query) collect(at);
      const query::RangeQuery q = workload.next(e);
      const auto tree = static_cast<TreeId>(queries++ % ref.net->tree_count());
      if (c.lmac || e == kAuditEpoch) {
        for (auto& w : worlds) w->net->inject_async(tree, q, e);
        open_query = q.id;
      } else {
        std::vector<QueryOutcome> outs;
        for (auto& w : worlds) outs.push_back(w->net->inject(tree, q, e));
        reached += outs[0].received.size();
        for (std::size_t i = 1; i < outs.size(); ++i) {
          expect_same_outcome(outs[0], outs[i],
                              at + " query engine " + std::to_string(i));
        }
      }
    }
    for (auto& w : worlds) w->finish_epoch(e);
    for (std::size_t i = 1; i < worlds.size(); ++i) {
      expect_same_state(ref, *worlds[i],
                        at + " threads " +
                            std::to_string(worlds[i]->net->threads()));
    }
    if (::testing::Test::HasFailure()) return;
  }
  if (open_query) collect("end");

  // The script really exercised the protocol.
  EXPECT_GT(ref.net->updates_transmitted(), 0);
  EXPECT_GT(ref.loss.dropped(), 0);
  EXPECT_GT(queries, 0);
  EXPECT_GT(reached, 0u);
  EXPECT_FALSE(ref.topo.is_alive(relay));
  const auto& listed = ref.topo.node(bare).sensors;
  EXPECT_TRUE(std::binary_search(listed.begin(), listed.end(), unplugged));
  const auto& carried = ref.net->node(bare).sensors();
  EXPECT_FALSE(std::binary_search(carried.begin(), carried.end(), unplugged));
  EXPECT_EQ(ref.repaired.count(relay), c.lmac ? 1u : 0u);  // MAC detected it
  if (c.gated) {
    EXPECT_GT(ref.samples_skipped(), 0);
  } else {
    EXPECT_EQ(ref.samples_skipped(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Cells, ReferenceWalkCell,
                         ::testing::ValuesIn(all_cells()), cell_name);

/// Readings on a straight line per (node, type): the gate's predictor
/// tracks them exactly, so its sampling intervals double up to the cap.
class RampField final : public data::ReadingSource {
 public:
  void advance_to(std::int64_t epoch) override { epoch_ = epoch; }
  [[nodiscard]] double reading(NodeId node, SensorType type) const override {
    return 10.0 + node + 5.0 * type + 0.01 * static_cast<double>(epoch_);
  }
  [[nodiscard]] std::size_t type_count() const override { return 2; }
  [[nodiscard]] std::int64_t epoch() const override { return epoch_; }

 private:
  std::int64_t epoch_ = 0;
};

TEST(ReferenceWalkAtc, TypeRegainedWhileTheGateHoldsItsSlot) {
  // A leaf loses a type before its first sample while the topology keeps
  // listing it, so the gate samples the slot (its interval grows on the
  // ramp) but no controller sees a reading of it. The leaf regains the
  // type at an epoch where its adjust is due and narrows (a huge budget)
  // and the slot is not due: as in the reference walk, the slot's ATC
  // entry must appear at its next reading, not at the plan rebuild, or
  // the adjust narrows an entry the reference does not have yet.
  constexpr NodeId kLeaf = 2;
  constexpr SensorType kType = 1;
  NetworkConfig cfg;
  cfg.mode = NetworkConfig::ThetaMode::Atc;
  cfg.atc.adjust_period = 10;
  cfg.sampling.enabled = true;
  std::vector<net::Node> line(3);
  for (NodeId u = 0; u < 3; ++u) {
    line[u].x = static_cast<double>(u);
    if (u > 0) line[u].sensors = {0, 1};
  }
  net::Topology ref_topo(line, 1.1);
  net::Topology topo(line, 1.1);
  DirqNetwork ref(ref_topo, 0, cfg);
  DirqNetwork net(topo, 0, cfg);
  ReferenceWalk walk(cfg.sampling);
  RampField env;
  std::int64_t regained = -1;
  for (std::int64_t e = 0; e < 200; ++e) {
    if (e == 0) {
      ref.handle_sensor_removed(kLeaf, kType, e);
      net.handle_sensor_removed(kLeaf, kType, e);
    }
    if (e % 50 == 0) {
      ref.broadcast_ehr(0, 1e6, e);
      net.broadcast_ehr(0, 1e6, e);
    }
    if (regained < 0 && e >= 40 && e % cfg.atc.adjust_period == 0 &&
        net.sampler(kLeaf).next_due(kType) > e) {
      ref.handle_sensor_added(kLeaf, kType, e);
      net.handle_sensor_added(kLeaf, kType, e);
      regained = e;
    }
    env.advance_to(e);
    walk.epoch(ref, ref_topo, env, e);
    net.process_epoch(env, e);
    ASSERT_EQ(ref.updates_transmitted(), net.updates_transmitted()) << e;
    ASSERT_EQ(walk.samples_taken(), net.samples_taken()) << e;
    ASSERT_EQ(walk.samples_skipped(), net.samples_skipped()) << e;
    for (NodeId u = 0; u < 3; ++u) {
      for (SensorType t = 0; t < 2; ++t) {
        ASSERT_EQ(bits(ref.node(u).controller(0).theta(t)),
                  bits(net.node(u).controller(0).theta(t)))
            << "epoch " << e << " node " << u << " type " << t;
      }
    }
  }
  ASSERT_GT(regained, 0);
  // The leaf's other type was narrowed, so the regained type's theta
  // really depends on when its entry appeared.
  EXPECT_LT(net.node(kLeaf).controller(0).theta_pct(0), cfg.atc.initial_pct);
}

}  // namespace
}  // namespace dirq::core
