// DirqNetwork: the whole-network DirQ instance.
//
// Owns one DirqNode per topology node, wires them to a transport, runs the
// epoch loop (sampling -> update propagation), injects queries at a sink
// root and audits which nodes the dissemination reaches, floods the hourly
// EHr estimate, and repairs the communication trees on node
// death/addition (paper §4.2).
//
// Accounting: the network books every transmission as a node sends it
// and every reception in deliver(), one record per event in each of the
// global ledger (kept in the transport's costs()), the message's tree
// ledger and the node's tx/rx counter, so the global ledger equals the sum
// of the tree ledgers and the summed per-node counters on every transport.
// Transports only route.
//
// Multi-sink query plane: the network owns a net::TreeSet — N BFS
// spanning trees over the one shared topology, one per sink. Every node
// runs one protocol slot per tree (core/dirq_node.hpp); messages carry
// their TreeId, and each sink's energy bill is its tree ledger. The
// single-root constructor builds a one-tree set, the paper's single-sink
// deployment; every per-tree entry point names its TreeId, and that
// deployment's sink is tree 0.
//
// The per-query audit records the exact set of nodes the query message was
// delivered to — this is the "nodes that RECEIVE a query" series of
// Fig. 5, compared by the metrics layer against the ground-truth
// involvement from query::compute_involvement.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/dirq_node.hpp"
#include "core/messages.hpp"
#include "core/sampling.hpp"
#include "core/transport.hpp"
#include "data/field_model.hpp"
#include "net/tree_set.hpp"
#include "net/topology.hpp"
#include "query/query.hpp"
#include "sim/types.hpp"

namespace dirq::core {

/// Result of injecting one query.
struct QueryOutcome {
  QueryId id = 0;
  TreeId tree = 0;                       // sink tree it was injected into
  std::vector<NodeId> received;          // nodes the query was delivered to
  std::vector<NodeId> believed_sources;  // received && own tuple overlaps
  CostUnits cost = 0;                    // tx+rx spent on this dissemination
};

struct NetworkConfig {
  enum class ThetaMode { Fixed, Atc };
  ThetaMode mode = ThetaMode::Fixed;
  double fixed_pct = 5.0;  // theta as % of each type's nominal span
  AtcConfig atc;
  /// Optional sampling suppression (paper §8 future work); off by default
  /// to match the paper's evaluated configuration.
  SamplingConfig sampling;
};

class LossChannel;  // counter-keyed CRC-loss model (core/lossy.hpp)

class DirqNetwork final : public MessageSink {
 public:
  /// Builds the node set and one BFS communication tree rooted at `root`
  /// (the paper's deployment). The topology must outlive the network.
  DirqNetwork(net::Topology& topo, NodeId root, NetworkConfig cfg);

  /// Multi-sink form: one BFS tree per root over the shared topology.
  /// Root validity (non-empty, unique, in-topology, alive) is enforced by
  /// the TreeSet constructor.
  DirqNetwork(net::Topology& topo, std::vector<NodeId> roots,
              NetworkConfig cfg);
  ~DirqNetwork() override;

  DirqNetwork(const DirqNetwork&) = delete;
  DirqNetwork& operator=(const DirqNetwork&) = delete;

  // --- wiring ---------------------------------------------------------------

  /// Default transport: the built-in InstantTransport. Replaceable (the
  /// LMAC transport installs itself here); the transport must outlive the
  /// network's use of it. A swap does not move the ledger: the driver
  /// carries costs over through the new transport's mutable_costs().
  void use_transport(Transport& t) { transport_ = &t; }
  [[nodiscard]] Transport& transport() noexcept { return *transport_; }
  /// The global ledger, kept in the current transport's costs().
  [[nodiscard]] const CostLedger& costs() const { return transport_->costs(); }

  /// Installs (or clears, with nullptr) the lossy-channel model: every
  /// delivery — any transport — rolls a counter-keyed drop verdict after
  /// deliver() has booked its reception, and dropped frames never reach
  /// the protocol. The epoch engine's pool tasks deliver through deliver()
  /// too, so they evaluate the verdicts in place. The channel must outlive
  /// the network's use of it; its counter planes are pre-sized here and
  /// kept sized across churn.
  void set_loss(LossChannel* loss);
  [[nodiscard]] const LossChannel* loss() const noexcept { return loss_; }

  /// The sink's share of the global ledger: every tx is booked against the
  /// tree its message belongs to at send time, every rx at delivery (or
  /// CRC-drop) time, in the same step that books the global ledger, so
  /// sum(tree_ledger(k)) == costs() holds on every transport at all times.
  /// A message tagged with a tree the network does not have is booked
  /// nowhere: sending or delivering it throws std::logic_error.
  [[nodiscard]] const CostLedger& tree_ledger(TreeId t) const {
    return tree_ledgers_.at(t);
  }

  [[nodiscard]] const net::TreeSet& trees() const noexcept { return trees_; }
  [[nodiscard]] std::size_t tree_count() const noexcept {
    return trees_.count();
  }
  [[nodiscard]] const net::SpanningTree& tree() const noexcept {
    return trees_.tree(0);
  }
  [[nodiscard]] const net::SpanningTree& tree(TreeId t) const {
    return trees_.tree(t);
  }
  [[nodiscard]] NodeId root(TreeId t) const { return trees_.root(t); }
  [[nodiscard]] DirqNode& node(NodeId id) { return nodes_.at(id); }
  [[nodiscard]] const DirqNode& node(NodeId id) const { return nodes_.at(id); }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

  // --- protocol operation ----------------------------------------------------

  /// One sensing epoch: every alive tree member samples each of its
  /// sensors; threshold crossings emit Update Messages that propagate
  /// toward each tree's root (instant transport: synchronously). Readings
  /// are pulled through the environment's batch plane — one
  /// ReadingSource::readings call per sensor type per epoch instead of a
  /// virtual reading() per node — and each physical sample is observed by
  /// every tree slot, so N sinks never multiply the sensing energy. The
  /// walk visits tree 0's cached BFS order (extended by members of other
  /// trees outside it) in reverse, leaves first, so the within-epoch
  /// update cascade settles in one pass.
  ///
  /// Every epoch runs the cached epoch plan (network.cpp): segments of
  /// that walk and tasks that each consume one segment for a range of tree
  /// slots. At one thread, and on any transport other than the built-in
  /// instant one (LMAC included), the plan is a single chunk, the whole
  /// walk, run on the caller with the real transport. Wider pools shard it
  /// on the instant transport (see set_threads). Whatever the width, the
  /// outcome is the same byte for byte; the oracle is the reference walk in
  /// tests/support/reference_walk.hpp, a sequential two-pass walk that
  /// drives the nodes through public APIs, which
  /// core.parallel_reference_walk_test checks every width against.
  ///
  /// In every mode the plan keeps an own-tuple plane: a dense
  /// per-(tree, type, plan slot) copy of every node's own tuple, built
  /// when the plan is rebuilt. A reading inside its own tuple leaves the
  /// range table as it is (theta only re-centres a tuple at a crossing),
  /// so only threshold crossings reach DirqNode::observe_slot. Because an
  /// own tuple changes only through its own node's sample (and update
  /// cascades touch only child tuples), every crossing of an epoch is
  /// known before the first one runs: each task makes one flat pass per
  /// (type, tree) over its segment's due readings that compares each
  /// reading with its plane entry and compacts the crossings branch-free,
  /// then runs them sorted by (position in the segment's visiting order,
  /// type, tree), the order the reference walk reaches them in, writing
  /// each entry back. ATC runs feed every reading to the slot's
  /// controller state in a flat pass beside that test, and a controller
  /// whose adjust is due runs it after the node's crossings; the sampling
  /// gate's bookkeeping is a flat per-type pass of the node's lead task.
  ///
  /// Contract, at every width: aliveness, sensors and own tuples change
  /// only inside process_epoch and the handle_* entry points, which
  /// invalidate the cached plan. A DirqNode driven directly
  /// (node(id).observe_slot(...)) between epochs leaves the plane stale,
  /// and a node found dead in the plan throws std::logic_error. Builds
  /// without NDEBUG check every plane entry against its range table and
  /// every cached ATC state against its controller before the sweep uses
  /// them (and that every crossing re-centres the tuple) and throw
  /// std::logic_error on a mismatch.
  void process_epoch(const data::ReadingSource& env, std::int64_t epoch);

  /// Intra-run worker count for process_epoch: 1 (the default) runs the
  /// plan as one chunk on the caller; 0 means all hardware threads. With
  /// more than one thread the plan shards the walk on the built-in
  /// instant transport: by root-child subtree for one sink (all update
  /// traffic is up-tree unicast, so tasks only meet at the root, whose
  /// deliveries are replayed after the merge before the root's own
  /// segment runs) and by spanning tree for several sinks (each task
  /// advances only its own tree's per-node slot, so the tasks are
  /// write-disjoint; task 0 owns the shared sampling gate). Any other
  /// transport (LMAC included) runs the one-chunk plan on the caller at
  /// every width, and its pool runs only the reading fetch. Pool tasks
  /// send through the instant transport and receive through deliver()
  /// like the caller; what they book lands in a per-task record merged in
  /// task order. They evaluate loss verdicts in place (pure functions of
  /// delivery identity, core/lossy.hpp), and — like every epoch — run
  /// inside an open query audit unchanged, since an epoch sends only
  /// update traffic and audits record only query deliveries. Reading
  /// batches run concurrently, split below whole types when the source
  /// allows.
  ///
  /// The pool's workers spin for sim::ThreadPool::kSpinWindow after each
  /// job, so between the two fork-joins of an epoch (fetch, consume) and
  /// across back-to-back epochs the second thread is awake and claims
  /// work instead of the caller doing it all (sim/thread_pool.hpp).
  void set_threads(unsigned threads);
  [[nodiscard]] unsigned threads() const noexcept;

  /// Hourly sink broadcast (paper §4): EHr plus the derived network-wide
  /// update budget Umax/Hr = fMax(graph) * EHr, flooded from the tree's
  /// root to every node (per-tree flood round, per-slot duplicate
  /// suppression). Returns the Umax/Hr value carried by the flooded
  /// message (0 when the tree has fewer than two members and nothing is
  /// flooded) — the single source the driver records, so the Fig. 6
  /// series can never drift from what the network disseminated.
  double broadcast_ehr(TreeId tree, double expected_queries_per_hour,
                       std::int64_t epoch);

  /// Injects a query at a sink's root and returns the audited outcome. A
  /// RangeQuery converts to its one-predicate MultiQuery. With the instant
  /// transport the dissemination completes synchronously; with an
  /// event-driven transport use inject_async + collect_outcome instead.
  QueryOutcome inject(TreeId tree, query::MultiQuery q, std::int64_t epoch);

  /// Starts an asynchronous dissemination (event-driven transports). The
  /// audit keeps accumulating until collect_outcome is called.
  void inject_async(TreeId tree, query::MultiQuery q, std::int64_t epoch);

  /// Finishes the audit started by the last inject_async.
  QueryOutcome collect_outcome();

  // --- topology dynamics (paper §4.2) -----------------------------------------

  /// Call after Topology::kill_node: repairs every affected tree, drops
  /// the dead child's tuples (triggering upward updates), re-announces
  /// re-parented subtrees. Trees the change provably cannot touch keep
  /// their cached structure (net::TreeSet::rebuild_affected).
  void handle_node_death(NodeId dead, std::int64_t epoch);

  /// Call after Topology::add_node: attaches the newcomer to the affected
  /// trees and integrates any re-parented neighbours.
  void handle_node_addition(NodeId added, std::int64_t epoch);

  /// Post-deployment sensor change on a node (propagates up, §4.2).
  void handle_sensor_added(NodeId id, SensorType type, std::int64_t epoch);
  void handle_sensor_removed(NodeId id, SensorType type, std::int64_t epoch);

  // --- statistics ---------------------------------------------------------------

  /// Total Update Message transmissions network-wide (origins + relays,
  /// all trees).
  [[nodiscard]] std::int64_t updates_transmitted() const noexcept {
    return updates_transmitted_;
  }

  /// Physical sensor samples taken / suppressed network-wide (paper §8
  /// sampling suppression; skipped == 0 when the feature is disabled).
  [[nodiscard]] std::int64_t samples_taken() const;
  [[nodiscard]] std::int64_t samples_skipped() const;

  /// Mean threshold (as % of the type's nominal span) over alive non-root
  /// members of tree 0 — the ATC trajectory series (kept a tree-0 series:
  /// the paper's figure tracks the primary sink's tree). Centralises the
  /// alive filter: dead nodes never contribute, matching the tree's
  /// cached (alive-only) BFS order.
  [[nodiscard]] double mean_theta_pct(SensorType type) const;

  /// Per-node radio energy (tx + rx units attributed to each node). The
  /// network's lifetime is governed by its hottest node, so the
  /// *distribution* matters as much as the total (bench/energy_hotspots).
  [[nodiscard]] CostUnits node_tx(NodeId id) const { return node_tx_.at(id); }
  [[nodiscard]] CostUnits node_rx(NodeId id) const { return node_rx_.at(id); }

  /// Hook invoked once per Update Message transmission with the epoch —
  /// the driver records the Fig. 6 time series through this.
  using UpdateHook = std::function<void(std::int64_t epoch)>;
  void set_update_hook(UpdateHook hook) { update_hook_ = std::move(hook); }

  // --- MessageSink -----------------------------------------------------------------

  void deliver(NodeId to, NodeId from, const Message& msg) override;

 private:
  struct EpochEngine;

  void wire_node(DirqNode& n);
  /// Books one transmission (rx false) or reception of `msg` by `node`:
  /// the global ledger, the message's tree ledger, the node's tx/rx
  /// counter and, for a transmitted update, the update count and hook.
  /// Inside a pool task it books the task's EpochShardCtx instead. Throws
  /// std::logic_error, booking nothing, on a tree the network lacks.
  void book(NodeId node, const Message& msg, bool rx);
  void begin_audit(QueryId id, TreeId tree, std::int64_t epoch);
  /// Re-runs BFS on every tree `changed` could have touched and
  /// reconciles those trees' parent/children pointers, removing stale
  /// child tuples and re-announcing moved subtrees.
  void retarget_trees(NodeId changed, std::int64_t epoch);

  // The epoch engine (network.cpp): the one partition step and the one
  // consume body.
  void rebuild_plan();
  /// Runs plan task `task`: a flat sweep over the segment's due readings
  /// finds the ones that leave their own tuple (and feeds ATC's
  /// per-reading update), and only those crossings and the due ATC
  /// adjusts reach the nodes, in the reference walk's order. The lead
  /// does the sampling gate's bookkeeping.
  void consume_crossings(std::size_t task, std::int64_t epoch);

  net::Topology& topo_;
  NetworkConfig cfg_;
  net::TreeSet trees_;
  NodeId root_;  // trees_.root(0), cached for the hot paths
  std::vector<DirqNode> nodes_;
  std::vector<SamplingController> samplers_;  // one per node
  std::vector<CostUnits> node_tx_, node_rx_;  // per-node radio energy
  std::vector<CostLedger> tree_ledgers_;      // per sink (see tree_ledger())

  std::unique_ptr<InstantTransport> instant_;
  Transport* transport_ = nullptr;
  LossChannel* loss_ = nullptr;  // CRC-loss model, nullptr when lossless

  /// The worker pool (size 1 spawns no thread) plus the cached epoch
  /// plan (see network.cpp).
  std::unique_ptr<EpochEngine> engine_;

  std::int64_t current_epoch_ = 0;
  std::int64_t updates_transmitted_ = 0;
  UpdateHook update_hook_;

  // Per-query audit state. The received and believed sets are bitmaps
  // over node ids, so collect_outcome lists them sorted and unique in one
  // pass rather than sorting the delivery order.
  bool audit_active_ = false;
  QueryId audit_query_ = 0;
  TreeId audit_tree_ = 0;
  CostUnits audit_cost_start_ = 0;
  std::vector<std::uint64_t> audit_received_;
  std::vector<std::uint64_t> audit_believed_;

  std::int64_t ehr_round_ = 0;
};

std::unique_ptr<ThetaController> make_controller(const NetworkConfig& cfg);

}  // namespace dirq::core
