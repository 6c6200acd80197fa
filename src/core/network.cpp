#include "core/network.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "analysis/cost_model.hpp"
#include "core/gate_scan.hpp"
#include "core/lossy.hpp"
#include "sim/cache_line.hpp"
#include "sim/thread_pool.hpp"

namespace dirq::core {

/// One event of a task's epoch: a threshold crossing found by the flat
/// sweep or, with type kAdjust, a due ATC adjust. Sorted by (pos, type,
/// tree): the order the reference walk reaches it in, a node's samples
/// type by type and tree by tree, then its controllers' end-of-epoch step
/// tree by tree.
struct SweepEvent {
  static constexpr SensorType kAdjust = std::numeric_limits<SensorType>::max();

  std::uint32_t pos = 0;  // position in the segment's visiting order
  SensorType type = 0;
  TreeId tree = 0;
  std::uint32_t index = 0;  // reading index into values[type]; kAdjust: node

  friend bool operator<(const SweepEvent& a, const SweepEvent& b) noexcept {
    if (a.pos != b.pos) return a.pos < b.pos;
    if (a.type != b.type) return a.type < b.type;
    return a.tree < b.tree;
  }
};
static_assert(sizeof(SweepEvent) == 16);

/// One epoch task's state: its crossing-sweep scratch and, for a task the
/// pool runs, what DirqNetwork::book books for it. Every transmission and
/// reception of a pool task's nodes lands here instead of the shared
/// ledgers and counters, per-node tx/rx in dense delta arrays (with one
/// task per tree the same node transmits in several tasks, so direct
/// writes to the shared counters would race), with a list of the nodes
/// whose deltas left zero, so the merge costs what the task booked, not
/// the network's size. In the subtree geometry
/// root-bound deliveries are deferred so the root — the only node
/// reachable from more than one task — is touched by exactly one thread.
/// Merged into the shared ledgers and counters in task order after the
/// join, which keeps the totals equal to the one-thread walk (they are
/// sums of the same per-message bookings). Inline tasks book directly and
/// use only the scratch.
///
/// alignas(64): each task's hot merge state gets its own cache line(s);
/// without it neighbouring tasks' ledgers share lines and every charge
/// bounces the line between cores (see BM_ParallelEpochShardScaling). The
/// heap buffers of its vectors come from sim::CacheLineAllocator for the
/// same reason: two tasks' small scratch arrays must never share a line,
/// or both threads running at once costs more than one.
struct alignas(64) EpochShardCtx {
  std::size_t index = 0;  // the task this context belongs to
  CostLedger ledger;
  std::int64_t update_msgs = 0;  // wire-level UpdateMessage transmissions
  // Root-bound deliveries, {from, msg}, in order.
  sim::CacheLineVector<std::pair<NodeId, Message>> to_root;
  // Per-node tx/rx deltas for this task's pass, and the nodes whose
  // deltas left zero this epoch: the merge walks only those (in task
  // order) and zeroes them again.
  sim::CacheLineVector<CostUnits> tx_delta;
  sim::CacheLineVector<CostUnits> rx_delta;
  sim::CacheLineVector<NodeId> touched;
  // The sweep: one (type, tree) pass's crossing readings, and the
  // epoch's events.
  sim::CacheLineVector<std::uint32_t> cross_reads;
  sim::CacheLineVector<SweepEvent> crossings;
};

namespace {
/// While a pool task runs, its context lives here, and book() and
/// deliver() read it. Distinct DirqNetwork instances own distinct pools,
/// so a worker thread only ever serves one network at a time and the
/// single slot cannot cross-talk.
thread_local EpochShardCtx* tls_shard = nullptr;

struct TlsShardGuard {
  explicit TlsShardGuard(EpochShardCtx* ctx) noexcept { tls_shard = ctx; }
  ~TlsShardGuard() { tls_shard = nullptr; }
  TlsShardGuard(const TlsShardGuard&) = delete;
  TlsShardGuard& operator=(const TlsShardGuard&) = delete;
};

/// Sets bit `id` of an audit bitmap, growing it with the topology.
void mark(std::vector<std::uint64_t>& bits, NodeId id) {
  if (id / 64 >= bits.size()) bits.resize(id / 64 + 1, 0);
  bits[id / 64] |= std::uint64_t{1} << (id % 64);
}

/// The ids an audit bitmap holds, ascending.
std::vector<NodeId> marked(const std::vector<std::uint64_t>& bits) {
  std::vector<NodeId> out;
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
      out.push_back(static_cast<NodeId>(64 * w) +
                    static_cast<NodeId>(std::countr_zero(b)));
    }
  }
  return out;
}

[[noreturn]] void throw_stale_aliveness() {
  throw std::logic_error(
      "DirqNetwork: aliveness changed without tree repair during an epoch");
}

/// Tree k's controller on `node` in an ATC run (make_controller builds
/// every controller of a network alike).
AtcController& atc_of(DirqNode& node, TreeId k) {
  return dynamic_cast<AtcController&>(node.controller(k));
}

/// The ATC state a reading of `type` on `node` feeds in tree k: the
/// controller's entry, created if absent (as on_reading creates it), or
/// nullptr when the node itself lacks the type (the topology's sensor list
/// can disagree with the node's), so that such a slot never touches ATC
/// state.
AtcController::TypeState* atc_state(DirqNode& node, TreeId k,
                                    SensorType type) {
  const std::vector<SensorType>& s = node.sensors();
  if (!std::binary_search(s.begin(), s.end(), type)) return nullptr;
  return &atc_of(node, k).state(type);
}
}  // namespace

/// The epoch engine: the pool plus the cached plan that every epoch walks.
///
/// The plan is a list of segments — each a contiguous stretch of the
/// epoch walk in visiting order — and a list of tasks, each one segment
/// for a range of tree slots, and every task runs consume_crossings. One
/// partition step (rebuild_plan) picks the geometry:
///
/// * Inline (a pool of 1, or any transport other than the built-in
///   instant one, LMAC included): one chunk — the whole reversed epoch
///   walk — and one task over all trees, run on the caller with the real
///   transport, so every send delivers (or, on LMAC, enqueues for the
///   slot loop) as it happens. A wider pool still runs the fetch.
///
/// * Subtrees (the built-in instant transport, one tree): segment s is
///   the s-th root child's subtree in leaves-first (reversed cached-BFS)
///   order; the tasks run largest segment first. All update traffic is
///   up-tree unicast, so tasks meet only at the root: root-bound
///   deliveries are deferred and replayed after the merge, then the
///   final segment — the root alone — runs inline, last, exactly where
///   the reversed walk visits it.
///
/// * Trees (the built-in instant transport, several trees): one segment,
///   the reversed union walk, and one task per tree, each advancing only
///   its own tree's slot per node (DirqNode::observe_slot and the slot's
///   controller) — slots share no mutable state, so the tasks are
///   write-disjoint and each tree's cascade, into its own root included,
///   stays inside its task. Task 0 leads.
///
/// The lead task of a node owns the shared sampling gate and does its
/// on_skip/on_sample/count_sample bookkeeping (the gate reads the tree-0
/// controller's theta, which only the lead mutates). Every plan has one
/// lead per node.
///
/// For every sensor type t, plan_nodes[t] lists the nodes carrying t in
/// segment-major visiting order and plan_seg[t] holds segs.size() + 1
/// offsets: segment s is [plan_seg[t][s], plan_seg[t][s + 1]).
///
/// next_due mirrors the sampling gate per plan slot (struct-of-arrays, so
/// the per-epoch gate filter is a flat int64 scan — gate_scan.hpp — over
/// a dense array instead of a FlatMap lookup per sensor); the lead writes
/// a slot back right after on_sample. In gated epochs due_mask[t] holds
/// the per-slot decision byte computed before any task runs and
/// filt_slot[t] the plan slot of each due reading (values[t] is the
/// compacted batch), so every task reads the same snapshot. The lead runs
/// the gate's bookkeeping as flat per-type passes before any crossing:
/// on_skip for each skipped slot, on_sample for each due one. That is
/// exact because a node's theta moves only in its own adjust, which runs
/// after all of that node's samples, and the gate's per-(node, type)
/// state and counters do not depend on the order across nodes.
///
/// own[k][t][j] (the own-tuple plane) mirrors tree k's own tuple
/// (lo = THmin, hi = THmax) for plan slot j of type t, indexed like
/// next_due. RangeTable::observe tests the stored tuple and uses theta
/// only to re-centre it, so a reading inside its own tuple leaves the
/// table as it is in every mode, and only crossings enter
/// DirqNode::observe_slot. An own tuple changes only in observe (the
/// node's own sample, always a crossing — the task writes the entry back
/// right after it) and clear_own (through handle_sensor_removed, which
/// dirties the plan), so the plane stays exact between rebuilds. Update
/// cascades touch only child tuples, so every crossing of an epoch is
/// known before the first one runs: each task finds them in one flat
/// sweep over its segment and runs them in (plan_pos, type, tree) order —
/// plan_pos[t][j] is slot j's position in its segment's visiting order —
/// which is the order the reference walk reaches them in
/// (consume_crossings).
///
/// ATC adds per-reading work (on_reading: an EWMA of |delta reading|),
/// per-send work (on_update_sent, inside the node) and per-epoch work
/// (on_epoch: an adjust every adjust_period epochs, which alone reads the
/// EWMA and the windows and alone moves theta). So in ATC runs
/// atc[k][t][j] caches plan slot j's state inside tree k's controller,
/// and each task feeds every reading to it with AtcController::observe,
/// a flat pass beside the crossing test; running those updates before
/// the epoch's crossings is exact since a node's adjust follows all of its
/// own samples. A rebuild clears the cache and a slot's first reading
/// after it resolves the entry, creating it exactly where on_reading
/// would (creating it at the rebuild could be observed: adjust narrows
/// every entry, and a gated slot whose node just gained the type need not
/// be due). It stays nullptr while the node lacks the type. The entries
/// sit in std::map nodes, which keep their addresses until the next
/// rebuild even when a relay's on_update_sent inserts a type mid-epoch.
/// last_adjust[k][u] mirrors the
/// last adjust epoch of tree k's controller on node u; a due adjust is
/// an event keyed (position, after every type, tree), which sorts after
/// the node's crossings and before the next node's — where the reference
/// walk ends the node's epoch (every controller's on_epoch) — so an epoch
/// with no adjust due touches no controller.
struct DirqNetwork::EpochEngine {
  explicit EpochEngine(unsigned threads) : pool(threads) {}

  static constexpr std::size_t kNoSeg = static_cast<std::size_t>(-1);

  enum class Geometry { Inline, Subtrees, Trees };

  /// Segment `seg` for tree slots [first, last); `lead` owns the gate.
  struct Task {
    std::size_t seg = 0;
    TreeId first = 0;
    TreeId last = 0;
    bool lead = false;
  };

  /// One plane entry. A missing tuple is (+inf, -inf), so `lo <= r &&
  /// r <= hi` is exactly RangeTable::observe's inside test — NaN and
  /// +-inf readings included.
  struct OwnTuple {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
  };

  static bool same(const OwnTuple& a, const OwnTuple& b) {
    return std::bit_cast<std::uint64_t>(a.lo) ==
               std::bit_cast<std::uint64_t>(b.lo) &&
           std::bit_cast<std::uint64_t>(a.hi) ==
               std::bit_cast<std::uint64_t>(b.hi);
  }

  /// Tree `k`'s own tuple for `type` on `node`, in plane form.
  static OwnTuple read_own(const DirqNode& node, TreeId k, SensorType type) {
    const RangeTable* table = node.table(k, type);
    if (table == nullptr || !table->own().has_value()) return {};
    return {table->own()->min, table->own()->max};
  }

  /// Writes plan slot begin + i for every reading r[i] that leaves own[i]
  /// — fails `lo <= r && r <= hi`, observe's inside test (NaN and +-inf
  /// included) — into `out`; returns the count. The store is
  /// unconditional and the cursor advances by the verdict, so the loop
  /// has no data-dependent branch (like gate_compact).
  static std::size_t crossing_slots(const OwnTuple* own, const double* r,
                                    std::size_t begin, std::size_t n,
                                    std::uint32_t* out) noexcept {
    std::size_t m = 0;
    for (std::size_t i = 0; i < n; ++i) {
      out[m] = static_cast<std::uint32_t>(begin + i);
      m += static_cast<std::size_t>(
          !((own[i].lo <= r[i]) & (r[i] <= own[i].hi)));
    }
    return m;
  }

  /// crossing_slots over a gated batch, whose reading r[i] belongs to
  /// plan slot slot[i]; writes begin + i, the reading's index.
  static std::size_t crossing_reads(const OwnTuple* own,
                                    const std::uint32_t* slot,
                                    const double* r, std::size_t begin,
                                    std::size_t n,
                                    std::uint32_t* out) noexcept {
    std::size_t m = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const OwnTuple& o = own[slot[i]];
      out[m] = static_cast<std::uint32_t>(begin + i);
      m += static_cast<std::size_t>(!((o.lo <= r[i]) & (r[i] <= o.hi)));
    }
    return m;
  }

  /// One readings() call: a contiguous slice of type t's batch. Splitting
  /// below whole types is only done on a pool of more than one thread
  /// when the source advertises concurrent_intra_type_chunks().
  struct FetchTask {
    SensorType type = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  sim::ThreadPool pool;
  bool plan_dirty = true;
  std::size_t plan_alive = 0;  // cheap staleness guard vs the topology
  const Transport* plan_transport = nullptr;  // transport the plan is for

  Geometry geometry = Geometry::Inline;
  std::vector<std::vector<NodeId>> segs;  // visiting order per segment
  std::vector<Task> tasks;
  std::size_t pool_tasks = 0;  // [0, pool_tasks) on the pool, rest inline
  std::vector<std::size_t> seg_of;  // Subtrees: per node, kNoSeg if none
  bool gated = false;               // sampling suppression on?

  std::vector<std::vector<NodeId>> plan_nodes;
  std::vector<std::vector<std::uint32_t>> plan_pos;  // see the own plane
  std::vector<std::vector<std::size_t>> plan_seg;
  std::vector<std::vector<std::int64_t>> next_due;  // gate mirror (gated)
  std::vector<std::vector<std::vector<OwnTuple>>> own;  // [tree][type][slot]
  // ATC runs only: [tree][type][slot] and [tree][node].
  std::vector<std::vector<std::vector<AtcController::TypeState*>>> atc;
  std::vector<std::vector<std::int64_t>> last_adjust;

  // Per-epoch scratch, reused so the hot loop never allocates.
  std::vector<EpochShardCtx> ctx;                   // one per task
  std::vector<std::vector<std::uint8_t>> due_mask;  // gated: 0/1 per slot
  std::vector<std::vector<NodeId>> filt_nodes;  // gated: nodes due this epoch
  std::vector<std::vector<std::uint32_t>> filt_slot;  // gated: their slots
  std::vector<std::vector<std::size_t>> filt_seg;
  std::vector<std::vector<double>> values;
  std::vector<FetchTask> fetch_tasks;
  std::vector<SensorType> active_types;  // non-empty batches this epoch

  // The fetch/consume batch for type t this epoch: the filtered list
  // when the gate is on, the full plan list otherwise.
  [[nodiscard]] const std::vector<NodeId>& batch(std::size_t t) const {
    return gated ? filt_nodes[t] : plan_nodes[t];
  }
  [[nodiscard]] const std::vector<std::size_t>& offsets(std::size_t t) const {
    return gated ? filt_seg[t] : plan_seg[t];
  }
  // The plan slot of reading i of type t's batch.
  [[nodiscard]] std::size_t slot_of(std::size_t t, std::size_t i) const {
    return gated ? filt_slot[t][i] : i;
  }
};

std::unique_ptr<ThetaController> make_controller(const NetworkConfig& cfg) {
  if (cfg.mode == NetworkConfig::ThetaMode::Fixed) {
    return std::make_unique<FixedTheta>(cfg.fixed_pct);
  }
  return std::make_unique<AtcController>(cfg.atc);
}

DirqNetwork::DirqNetwork(net::Topology& topo, NodeId root, NetworkConfig cfg)
    : DirqNetwork(topo, std::vector<NodeId>{root}, cfg) {}

DirqNetwork::DirqNetwork(net::Topology& topo, std::vector<NodeId> roots,
                         NetworkConfig cfg)
    : topo_(topo),
      cfg_(cfg),
      trees_(topo, std::move(roots)),
      root_(trees_.root(0)),
      engine_(std::make_unique<EpochEngine>(1)) {
  const std::size_t n_trees = trees_.count();
  nodes_.reserve(topo.size());
  for (const net::Node& n : topo.nodes()) {
    nodes_.emplace_back(n.id,
                        std::vector<SensorType>(n.sensors.begin(), n.sensors.end()),
                        make_controller(cfg_));
    for (TreeId t = 1; t < n_trees; ++t) {
      nodes_.back().add_slot(make_controller(cfg_));
    }
    samplers_.emplace_back(cfg_.sampling);
  }
  node_tx_.assign(topo.size(), 0);
  node_rx_.assign(topo.size(), 0);
  tree_ledgers_.assign(n_trees, CostLedger{});
  instant_ = std::make_unique<InstantTransport>(topo_, *this);
  transport_ = instant_.get();
  for (NodeId u = 0; u < topo.size(); ++u) {
    nodes_[u].set_position(topo.node(u).x, topo.node(u).y);
    for (TreeId t = 0; t < n_trees; ++t) {
      const net::SpanningTree& tr = trees_.tree(t);
      if (!tr.in_tree(u)) continue;
      nodes_[u].set_parent(t, tr.parent(u));
      const auto ch = tr.children(u);
      nodes_[u].set_children(t, std::vector<NodeId>(ch.begin(), ch.end()));
    }
  }
  for (DirqNode& n : nodes_) wire_node(n);
  // Bootstrap the static location attribute: leaves-first announcement so
  // subtree bounding boxes aggregate toward each root in a single wave
  // per tree.
  for (TreeId t = 0; t < n_trees; ++t) {
    const std::vector<NodeId>& order = trees_.tree(t).bfs_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      nodes_[*it].announce_location(t, 0);
    }
  }
}

DirqNetwork::~DirqNetwork() = default;

void DirqNetwork::set_threads(unsigned threads) {
  const unsigned n = sim::ThreadPool::resolve(threads);
  if (engine_->pool.size() != n) engine_ = std::make_unique<EpochEngine>(n);
}

unsigned DirqNetwork::threads() const noexcept {
  return engine_->pool.size();
}

void DirqNetwork::set_loss(LossChannel* loss) {
  loss_ = loss;
  // Pre-size the counter planes so parallel shards never grow the outer
  // vectors (their per-(tree, from) cells stay shard-owned); kept sized
  // across churn by retarget_trees.
  if (loss_ != nullptr) loss_->configure(trees_.count(), topo_.size());
}

void DirqNetwork::book(NodeId node, const Message& msg, bool rx) {
  const TreeId tree = message_tree(msg);
  if (tree >= tree_ledgers_.size()) {
    throw std::logic_error(
        "DirqNetwork: message for a tree the network does not have");
  }
  const bool update = !rx && std::holds_alternative<UpdateMessage>(msg);
  if (EpochShardCtx* ctx = tls_shard) {
    // The merge books a task's ledger into its tree's, so a task carries
    // only that tree's traffic (a subtree task tree 0's).
    if (tree != engine_->tasks[ctx->index].first) {
      throw std::logic_error(
          "DirqNetwork: cross-tree message during a sharded epoch");
    }
    ++ctx->ledger.counter(msg, rx);
    if ((ctx->tx_delta.at(node) | ctx->rx_delta.at(node)) == 0) {
      ctx->touched.push_back(node);
    }
    ++(rx ? ctx->rx_delta : ctx->tx_delta)[node];
    if (update) ++ctx->update_msgs;
    return;
  }
  ++transport_->mutable_costs().counter(msg, rx);
  ++tree_ledgers_[tree].counter(msg, rx);
  if (node >= node_tx_.size()) {
    // A reception in the Topology::add_node -> handle_node_addition window.
    node_tx_.resize(topo_.size(), 0);
    node_rx_.resize(topo_.size(), 0);
  }
  ++(rx ? node_rx_ : node_tx_)[node];
  if (update) {
    ++updates_transmitted_;
    if (update_hook_) update_hook_(current_epoch_);
  }
}

void DirqNetwork::wire_node(DirqNode& n) {
  n.set_send([this](NodeId from, NodeId to, const Message& msg) {
    book(from, msg, false);
    transport_->unicast(from, to, msg);
  });
  n.set_multicast([this](NodeId from, const std::vector<NodeId>& targets,
                         const Message& msg) {
    if (tls_shard != nullptr) {
      // An epoch is strictly up-tree unicast; anything else here means
      // protocol state diverged from the tree. Fail loud.
      throw std::logic_error("DirqNetwork: multicast during a parallel epoch");
    }
    if (targets.empty()) return;  // sends nothing
    book(from, msg, false);  // one transmission regardless of target count
    transport_->multicast(from, targets, msg);
  });
  n.set_broadcast([this](NodeId from, const Message& msg) {
    if (tls_shard != nullptr) {
      throw std::logic_error("DirqNetwork: broadcast during a parallel epoch");
    }
    book(from, msg, false);
    transport_->broadcast(from, msg);
  });
}

void DirqNetwork::deliver(NodeId to, NodeId from, const Message& msg) {
  // The radio exists as soon as the topology slot does, so the reception
  // is booked even when the protocol instance for `to` does not exist yet
  // (the Topology::add_node -> handle_node_addition window): cost parity
  // is an invariant, not a best effort. An id beyond the topology itself
  // is a transport contract violation.
  if (to >= topo_.size()) {
    throw std::logic_error("DirqNetwork::deliver: recipient outside topology");
  }
  book(to, msg, true);
  // CRC loss: the radio has paid its rx — the protocol never sees the
  // frame. A pool task decides the verdict in place: it is a pure function
  // of (tree, from, to, per-key seq) and the task owns the key (a tree
  // task the whole tree plane, a subtree task the sender), so it equals
  // the one-thread verdict, and root-bound drops are never deferred.
  if (loss_ != nullptr && loss_->next_drop(message_tree(msg), from, to)) {
    return;
  }
  if (to >= nodes_.size()) return;  // heard, but not yet integrated
  if (EpochShardCtx* ctx = tls_shard;
      ctx != nullptr &&
      engine_->geometry == EpochEngine::Geometry::Subtrees) {
    // Subtree tasks meet only at the root, whose deliveries replay after
    // the merge. A tree task owns its tree's slot on every node, roots
    // included, so it delivers inline.
    if (to == root_) {
      ctx->to_root.emplace_back(from, msg);
      return;
    }
    if (engine_->seg_of[to] != engine_->tasks[ctx->index].seg) {
      throw std::logic_error(
          "DirqNetwork: cross-shard delivery — node parent state diverged "
          "from the spanning tree");
    }
  }
  if (audit_active_) {  // query traffic only; an epoch carries updates
    if (const auto* qm = std::get_if<QueryMessage>(&msg);
        qm != nullptr && qm->q.id == audit_query_) {
      mark(audit_received_, to);
      if (nodes_[to].believes_relevant(qm->tree, qm->q)) {
        mark(audit_believed_, to);
      }
    }
  }
  nodes_[to].handle(msg, from, current_epoch_);
}

void DirqNetwork::process_epoch(const data::ReadingSource& env,
                                std::int64_t epoch) {
  current_epoch_ = epoch;
  EpochEngine& pe = *engine_;
  const bool rebuilt = pe.plan_dirty || pe.plan_alive != topo_.alive_count() ||
                       pe.plan_transport != transport_;
  if (rebuilt) rebuild_plan();
  const std::size_t type_count = pe.plan_nodes.size();

  // Intra-type chunking needs the source's lazy node adoption settled
  // before chunks of one type run concurrently (FastField grows its
  // per-node cache on first sight of a node id). One serial probe of the
  // highest planned node per type — readings are pure, so this has no
  // observable effect — guarantees every chunk only reads adopted state.
  const bool chunked_fetch = pe.pool.size() > 1 &&
                             env.concurrent_type_batches() &&
                             env.concurrent_intra_type_chunks();
  if (rebuilt && chunked_fetch) {
    for (std::size_t t = 0; t < type_count; ++t) {
      if (pe.plan_nodes[t].empty() || t >= env.type_count()) continue;
      const NodeId mx =
          *std::max_element(pe.plan_nodes[t].begin(), pe.plan_nodes[t].end());
      (void)env.reading(mx, static_cast<SensorType>(t));
    }
  }

  // Gather: with the gate off (the paper's configuration) the cached plan
  // lists *are* the batches — zero per-epoch work. With it on, the gate
  // is a branch-light two-pass sweep per type over the next_due mirror
  // (gate_scan.hpp: a vectorizable compare pass into due_mask, then an
  // unconditional-store compaction per segment); slots only change
  // through on_sample, so the mask branches exactly like should_sample.
  if (pe.gated) {
    const std::size_t nseg = pe.segs.size();
    for (std::size_t t = 0; t < type_count; ++t) {
      const std::vector<NodeId>& pn = pe.plan_nodes[t];
      const std::size_t n = pn.size();
      pe.due_mask[t].resize(n);
      gate_scan_mask(pe.next_due[t].data(), n, epoch, pe.due_mask[t].data());
      pe.filt_nodes[t].resize(n);
      pe.filt_slot[t].resize(n);
      std::size_t m = 0;
      for (std::size_t s = 0; s < nseg; ++s) {
        pe.filt_seg[t][s] = m;
        m += gate_compact(pn.data(), pe.due_mask[t].data(), pe.plan_seg[t][s],
                          pe.plan_seg[t][s + 1], pe.filt_nodes[t].data() + m,
                          pe.filt_slot[t].data() + m);
      }
      pe.filt_seg[t][nseg] = m;
      pe.filt_nodes[t].resize(m);
      pe.filt_slot[t].resize(m);
    }
  }

  // Readings: one batch per sensor type; types run concurrently when the
  // source's per-type state is disjoint (both synthetic backends), and on
  // a pool of more than one thread a single type's batch additionally
  // splits into chunks when the source supports it (FastField, whose
  // readings only read its cell plane and node-disjoint caches) — either
  // way the same values, since readings are pure at a fixed epoch.
  pe.active_types.clear();
  pe.fetch_tasks.clear();
  std::size_t total_batch = 0;
  for (std::size_t t = 0; t < type_count; ++t) {
    const std::vector<NodeId>& batch = pe.batch(t);
    pe.values[t].resize(batch.size());
    total_batch += batch.size();
    if (!batch.empty()) pe.active_types.push_back(static_cast<SensorType>(t));
  }
  // Chunk size depends only on the plan and the pool width, never on
  // timing, so the task list — and every readings() argument — is
  // deterministic.
  constexpr std::size_t kMinChunk = 128;
  const std::size_t target =
      chunked_fetch
          ? std::max(kMinChunk,
                     total_batch / (static_cast<std::size_t>(pe.pool.size()) * 2))
          : 0;
  for (SensorType t : pe.active_types) {
    const std::size_t n = pe.batch(t).size();
    if (!chunked_fetch || n <= target) {
      pe.fetch_tasks.push_back({t, 0, n});
      continue;
    }
    for (std::size_t b = 0; b < n; b += target) {
      pe.fetch_tasks.push_back({t, b, std::min(b + target, n)});
    }
  }
  const auto fetch = [&](std::size_t k) {
    const EpochEngine::FetchTask& ft = pe.fetch_tasks[k];
    const std::vector<NodeId>& batch = pe.batch(ft.type);
    env.readings(ft.type,
                 std::span<const NodeId>(batch).subspan(ft.begin,
                                                        ft.end - ft.begin),
                 std::span<double>(pe.values[ft.type])
                     .subspan(ft.begin, ft.end - ft.begin));
  };
  if (env.concurrent_type_batches()) {
    pe.pool.parallel_for(pe.fetch_tasks.size(), fetch);
  } else {
    for (std::size_t k = 0; k < pe.fetch_tasks.size(); ++k) fetch(k);
  }

  // Consume, pool tasks first: each runs against its own shard context.
  for (std::size_t i = 0; i < pe.pool_tasks; ++i) {
    EpochShardCtx& ctx = pe.ctx[i];
    ctx.ledger = CostLedger{};
    ctx.update_msgs = 0;
    ctx.to_root.clear();
  }
  if (pe.pool_tasks > 0) {
    pe.pool.parallel_for(pe.pool_tasks, [this, &pe, epoch](std::size_t i) {
      const TlsShardGuard guard(&pe.ctx[i]);
      consume_crossings(i, epoch);
    });
  }

  // Merge, in task order (deterministic): ledgers and counters are sums,
  // so totals equal the one-thread walk; the update hook fires once per
  // transmission with the same epoch, so recorded series are identical.
  // Each task's ledger also merges into its tree's — a task carries only
  // that tree's traffic (asserted in book). Per-node tx/rx deltas merge
  // (and reset) likewise, over the nodes each task touched.
  CostLedger& ledger = transport_->mutable_costs();
  for (std::size_t i = 0; i < pe.pool_tasks; ++i) {
    EpochShardCtx& ctx = pe.ctx[i];
    ledger += ctx.ledger;
    tree_ledgers_[pe.tasks[i].first] += ctx.ledger;
    updates_transmitted_ += ctx.update_msgs;
    if (update_hook_) {
      for (std::int64_t k = 0; k < ctx.update_msgs; ++k) update_hook_(epoch);
    }
    for (NodeId u : ctx.touched) {
      if (u >= node_tx_.size()) {  // as book() grows them on the caller
        node_tx_.resize(topo_.size(), 0);
        node_rx_.resize(topo_.size(), 0);
      }
      node_tx_[u] += ctx.tx_delta[u];
      node_rx_[u] += ctx.rx_delta[u];
      ctx.tx_delta[u] = 0;
      ctx.rx_delta[u] = 0;
    }
    ctx.touched.clear();
  }
  // Subtrees: the deferred root deliveries, then (below) the root. Each
  // was booked and passed its loss verdict inside its task, and an epoch
  // carries only updates, which no query audit records — so the replay
  // only hands the message to the root.
  for (std::size_t i = 0; i < pe.pool_tasks; ++i) {
    for (const auto& [from, msg] : pe.ctx[i].to_root) {
      nodes_[root_].handle(msg, from, epoch);
    }
  }

  // Inline tasks, on the caller with the real transport: the whole walk
  // of a one-chunk plan, or the subtree geometry's root segment.
  for (std::size_t i = pe.pool_tasks; i < pe.tasks.size(); ++i) {
    consume_crossings(i, epoch);
  }
}

void DirqNetwork::rebuild_plan() {
  using Geometry = EpochEngine::Geometry;
  EpochEngine& pe = *engine_;
  const auto trees = static_cast<TreeId>(trees_.count());
  // The epoch walk: tree 0's BFS order, then the members of the other
  // trees outside it in their own BFS order, visited reversed and alive
  // only — the one-thread visiting order. Leaves first makes the
  // within-epoch update cascade settle in a single pass; any order is
  // correct since parents re-check on every child update.
  std::vector<NodeId> order;
  std::vector<char> seen(topo_.size(), 0);
  for (TreeId k = 0; k < trees; ++k) {
    for (NodeId u : trees_.tree(k).bfs_order()) {
      if (seen[u] == 0) order.push_back(u);
      seen[u] = 1;
    }
  }
  std::vector<NodeId> walk;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (topo_.is_alive(*it)) walk.push_back(*it);
  }

  pe.segs.clear();
  pe.tasks.clear();
  pe.seg_of.clear();
  // Only the built-in instant transport delivers synchronously on whatever
  // thread sends, so only it is sharded.
  if (pe.pool.size() == 1 || transport_ != instant_.get()) {
    pe.geometry = Geometry::Inline;
    pe.segs.push_back(std::move(walk));
    pe.tasks.push_back({0, 0, trees, true});
    pe.pool_tasks = 0;
  } else if (trees == 1) {
    pe.geometry = Geometry::Subtrees;
    const net::SpanningTree& tree0 = trees_.tree(0);
    pe.segs = tree0.subtree_partition();
    // Leaves-first within each subtree: the same relative order the
    // reversed walk visits it in, so intra-task cascades settle in one
    // pass exactly as they do on one thread.
    pe.seg_of.assign(nodes_.size(), EpochEngine::kNoSeg);
    for (std::size_t s = 0; s < pe.segs.size(); ++s) {
      std::reverse(pe.segs[s].begin(), pe.segs[s].end());
      for (NodeId u : pe.segs[s]) pe.seg_of[u] = s;
      pe.tasks.push_back({s, 0, 1, true});
    }
    // Largest first keeps the pool busy when subtree sizes are skewed;
    // the order is unobservable (tasks are disjoint, and the root's state
    // does not depend on the order its children's updates arrive in).
    std::stable_sort(pe.tasks.begin(), pe.tasks.end(),
                     [&pe](const EpochEngine::Task& a,
                           const EpochEngine::Task& b) {
                       return pe.segs[a.seg].size() > pe.segs[b.seg].size();
                     });
    pe.pool_tasks = pe.tasks.size();
    pe.segs.emplace_back();
    if (tree0.in_tree(root_)) pe.segs.back().push_back(root_);
    pe.tasks.push_back({pe.segs.size() - 1, 0, 1, true});
  } else {
    pe.geometry = Geometry::Trees;
    pe.segs.push_back(std::move(walk));
    for (TreeId k = 0; k < trees; ++k) pe.tasks.push_back({0, k, k + 1, k == 0});
    pe.pool_tasks = trees;
  }

  // Segment-major per-type plan: plan_seg[t][s] opens segment s's slots
  // of type t and plan_seg[t][segs.size()] closes the last one.
  const std::size_t nseg = pe.segs.size();
  std::size_t type_count = 0;
  for (const std::vector<NodeId>& seg : pe.segs) {
    for (NodeId u : seg) {
      for (SensorType t : topo_.node(u).sensors) {
        type_count = std::max<std::size_t>(type_count, t + 1);
      }
    }
  }
  pe.plan_nodes.assign(type_count, {});
  pe.plan_pos.assign(type_count, {});
  pe.plan_seg.assign(type_count, std::vector<std::size_t>(nseg + 1, 0));
  for (std::size_t s = 0; s < nseg; ++s) {
    for (std::size_t t = 0; t < type_count; ++t) {
      pe.plan_seg[t][s] = pe.plan_nodes[t].size();
    }
    for (std::size_t i = 0; i < pe.segs[s].size(); ++i) {
      for (SensorType t : topo_.node(pe.segs[s][i]).sensors) {
        pe.plan_nodes[t].push_back(pe.segs[s][i]);
        pe.plan_pos[t].push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  for (std::size_t t = 0; t < type_count; ++t) {
    pe.plan_seg[t][nseg] = pe.plan_nodes[t].size();
  }

  pe.gated = cfg_.sampling.enabled;
  pe.next_due.clear();
  if (pe.gated) {
    pe.next_due.resize(type_count);
    for (std::size_t t = 0; t < type_count; ++t) {
      for (NodeId u : pe.plan_nodes[t]) {
        pe.next_due[t].push_back(
            samplers_[u].next_due(static_cast<SensorType>(t)));
      }
    }
  }
  // The own-tuple plane, read back from the range tables in one pass: a
  // rebuild follows every path that can move an own tuple outside the
  // plane (churn, sensor changes). ATC runs also reset each slot's cached
  // controller state and mirror each controller's last adjust epoch.
  const bool atc = cfg_.mode == NetworkConfig::ThetaMode::Atc;
  pe.own.assign(trees, {});
  pe.atc.assign(atc ? trees : 0, {});
  pe.last_adjust.assign(atc ? trees : 0, {});
  for (TreeId k = 0; k < trees; ++k) {
    pe.own[k].resize(type_count);
    if (atc) pe.atc[k].resize(type_count);
    for (std::size_t t = 0; t < type_count; ++t) {
      const auto type = static_cast<SensorType>(t);
      for (NodeId u : pe.plan_nodes[t]) {
        pe.own[k][t].push_back(EpochEngine::read_own(nodes_[u], k, type));
      }
      if (atc) pe.atc[k][t].assign(pe.plan_nodes[t].size(), nullptr);
    }
    if (!atc) continue;
    pe.last_adjust[k].assign(topo_.size(), 0);
    for (const std::vector<NodeId>& seg : pe.segs) {
      for (NodeId u : seg) {
        pe.last_adjust[k][u] = atc_of(nodes_[u], k).last_adjust_epoch();
      }
    }
  }

  pe.ctx.resize(pe.tasks.size());
  for (std::size_t i = 0; i < pe.ctx.size(); ++i) {
    const std::size_t nodes = i < pe.pool_tasks ? topo_.size() : 0;
    pe.ctx[i].index = i;
    pe.ctx[i].tx_delta.assign(nodes, 0);
    pe.ctx[i].rx_delta.assign(nodes, 0);
    pe.ctx[i].touched.clear();
  }
  pe.due_mask.assign(type_count, {});
  pe.filt_nodes.assign(type_count, {});
  pe.filt_slot.assign(type_count, {});
  pe.filt_seg.assign(type_count, std::vector<std::size_t>(nseg + 1, 0));
  pe.values.resize(type_count);
  pe.plan_alive = topo_.alive_count();
  pe.plan_transport = transport_;
  pe.plan_dirty = false;
}

void DirqNetwork::consume_crossings(std::size_t task, std::int64_t epoch) {
  EpochEngine& pe = *engine_;
  const EpochEngine::Task& tk = pe.tasks[task];
  EpochShardCtx& ctx = pe.ctx[task];
  const bool atc = !pe.atc.empty();
  ctx.crossings.clear();
  // Per-node work: fail loud on an aliveness change without tree repair,
  // (the lead, gate off) tick the gate's per-reading sample counter, and
  // (ATC) queue each due adjust after the node's crossings.
  const std::vector<NodeId>& seg = pe.segs[tk.seg];
  for (std::size_t i = 0; i < seg.size(); ++i) {
    const NodeId u = seg[i];
    if (!topo_.is_alive(u)) throw_stale_aliveness();
    if (tk.lead && !pe.gated) {
      SamplingController& gate = samplers_[u];
      for (std::size_t n = topo_.node(u).sensors.size(); n > 0; --n) {
        gate.count_sample();
      }
    }
    if (!atc) continue;
    for (TreeId k = tk.first; k < tk.last; ++k) {
      if (epoch - pe.last_adjust[k][u] >= cfg_.atc.adjust_period) {
        ctx.crossings.push_back(
            {static_cast<std::uint32_t>(i), SweepEvent::kAdjust, k, u});
      }
    }
  }
  // 1. Per type: the lead's gate bookkeeping, then one flat pass per tree
  //    over the segment's readings — ATC's per-reading update, and the
  //    test that finds every reading that leaves its own tuple.
  for (std::size_t t = 0; t < pe.plan_nodes.size(); ++t) {
    const std::size_t b = pe.plan_seg[t][tk.seg];
    const std::size_t e = pe.plan_seg[t][tk.seg + 1];
    if (b == e) continue;
    const std::size_t rb = pe.offsets(t)[tk.seg];
    const std::size_t re = pe.offsets(t)[tk.seg + 1];
    const auto type = static_cast<SensorType>(t);
    const double* vals = pe.values[t].data();
    if (pe.gated && tk.lead) {
      for (std::size_t j = b; j < e; ++j) {
        if (pe.due_mask[t][j] == 0) samplers_[pe.plan_nodes[t][j]].on_skip(type);
      }
      for (std::size_t i = rb; i < re; ++i) {
        const std::uint32_t j = pe.filt_slot[t][i];
        const NodeId u = pe.plan_nodes[t][j];
        SamplingController& gate = samplers_[u];
        gate.on_sample(type, vals[i], nodes_[u].controller(0).theta(type),
                       epoch);
        pe.next_due[t][j] = gate.next_due(type);  // slot owned by the lead
      }
    }
    ctx.cross_reads.resize(re - rb);
    for (TreeId k = tk.first; k < tk.last; ++k) {
      const EpochEngine::OwnTuple* own = pe.own[k][t].data();
#ifndef NDEBUG
      // Fail loud on a stale plan: a skipped sample is exact only while
      // the plane entry equals the table's tuple, and the ATC pass only
      // while each cached state is its controller's entry.
      for (std::size_t j = b; j < e; ++j) {
        DirqNode& node = nodes_[pe.plan_nodes[t][j]];
        if (!EpochEngine::same(EpochEngine::read_own(node, k, type), own[j])) {
          throw std::logic_error(
              "DirqNetwork: own-tuple plane diverged from the range table "
              "(own tuple changed outside process_epoch/handle_*)");
        }
        if (atc && pe.atc[k][t][j] != nullptr &&
            pe.atc[k][t][j] != atc_state(node, k, type)) {
          throw std::logic_error(
              "DirqNetwork: cached ATC state diverged from its controller");
        }
      }
#endif
      if (atc) {
        AtcController::TypeState** st = pe.atc[k][t].data();
        for (std::size_t i = rb; i < re; ++i) {
          const std::size_t j = pe.slot_of(t, i);
          if (st[j] == nullptr) {  // first reading since the rebuild
            st[j] = atc_state(nodes_[pe.plan_nodes[t][j]], k, type);
          }
          if (st[j] != nullptr) AtcController::observe(*st[j], vals[i]);
        }
      }
      const std::size_t m =
          pe.gated ? EpochEngine::crossing_reads(
                         own, pe.filt_slot[t].data() + rb, vals + rb, rb,
                         re - rb, ctx.cross_reads.data())
                   : EpochEngine::crossing_slots(own + b, vals + b, b, e - b,
                                                 ctx.cross_reads.data());
      for (std::size_t c = 0; c < m; ++c) {
        const std::uint32_t i = ctx.cross_reads[c];
        ctx.crossings.push_back({pe.plan_pos[t][pe.slot_of(t, i)], type, k, i});
      }
    }
  }
  // 2. The reference walk's order: position, then type, then tree.
  std::sort(ctx.crossings.begin(), ctx.crossings.end());
  // 3. Only crossings and due adjusts reach the node; each crossing writes
  //    its plane entry back, each adjust its mirror.
  for (const SweepEvent& c : ctx.crossings) {
    if (c.type == SweepEvent::kAdjust) {
      AtcController& ctrl = atc_of(nodes_[c.index], c.tree);
      ctrl.on_epoch(epoch);
      pe.last_adjust[c.tree][c.index] = ctrl.last_adjust_epoch();
      continue;
    }
    const std::size_t j = pe.slot_of(c.type, c.index);
    DirqNode& node = nodes_[pe.plan_nodes[c.type][j]];
    EpochEngine::OwnTuple& own = pe.own[c.tree][c.type][j];
    node.observe_slot(c.tree, c.type, pe.values[c.type][c.index], epoch);
    const EpochEngine::OwnTuple next =
        EpochEngine::read_own(node, c.tree, c.type);
#ifndef NDEBUG
    // A crossing of a present tuple re-centres it (the plane's inside
    // test agrees with observe's).
    if (own.lo <= own.hi && EpochEngine::same(next, own)) {
      throw std::logic_error(
          "DirqNetwork: own-tuple plane saw a crossing the range table "
          "did not");
    }
#endif
    own = next;  // slot owned by this task
  }
}

double DirqNetwork::mean_theta_pct(SensorType type) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (NodeId u : trees_.tree(0).bfs_order()) {
    if (u == root_ || !topo_.is_alive(u)) continue;
    sum += nodes_[u].controller(0).theta_pct(type);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double DirqNetwork::broadcast_ehr(TreeId tree,
                                  double expected_queries_per_hour,
                                  std::int64_t epoch) {
  current_epoch_ = epoch;
  const net::SpanningTree& tr = trees_.tree(tree);
  const auto nodes = static_cast<std::int64_t>(tr.size());
  if (nodes < 2) return 0.0;
  const auto links = static_cast<std::int64_t>(topo_.link_count());
  EhrMessage msg;
  msg.tree = tree;
  msg.expected_queries_per_hour = expected_queries_per_hour;
  msg.umax_per_hour = analysis::umax_messages_per_hour(
      nodes, links, static_cast<std::int64_t>(tr.internal_node_count()),
      expected_queries_per_hour);
  msg.alive_nodes = static_cast<std::uint32_t>(topo_.alive_count());
  msg.round = ++ehr_round_;
  // The gateway hands the estimate to the tree's root, which floods it.
  nodes_[trees_.root(tree)].handle(Message{msg}, kNoNode, epoch);
  return msg.umax_per_hour;
}

void DirqNetwork::begin_audit(QueryId id, TreeId tree, std::int64_t epoch) {
  if (audit_active_) {
    throw std::logic_error("DirqNetwork: previous query audit still open");
  }
  current_epoch_ = epoch;
  audit_active_ = true;
  audit_query_ = id;
  audit_tree_ = tree;
  std::fill(audit_received_.begin(), audit_received_.end(), 0);
  std::fill(audit_believed_.begin(), audit_believed_.end(), 0);
  audit_cost_start_ = transport_->costs().query_cost();
}

void DirqNetwork::inject_async(TreeId tree, query::MultiQuery q,
                               std::int64_t epoch) {
  begin_audit(q.id, tree, epoch);
  // The gateway delivers the query to the sink's root (no radio cost: the
  // root is wired to the server, paper §3). The root then directs it
  // down its own tree.
  nodes_[trees_.root(tree)].handle(Message{QueryMessage{std::move(q), tree}},
                                   kNoNode, epoch);
}

QueryOutcome DirqNetwork::collect_outcome() {
  if (!audit_active_) {
    throw std::logic_error("DirqNetwork: no query audit open");
  }
  QueryOutcome out;
  out.id = audit_query_;
  out.tree = audit_tree_;
  out.received = marked(audit_received_);
  out.believed_sources = marked(audit_believed_);
  out.cost = transport_->costs().query_cost() - audit_cost_start_;
  audit_active_ = false;
  return out;
}

QueryOutcome DirqNetwork::inject(TreeId tree, query::MultiQuery q,
                                 std::int64_t epoch) {
  // Instant transport: the dissemination completes synchronously.
  inject_async(tree, std::move(q), epoch);
  return collect_outcome();
}

void DirqNetwork::retarget_trees(NodeId changed, std::int64_t epoch) {
  const std::vector<TreeId> rebuilt = trees_.rebuild_affected(topo_, changed);
  engine_->plan_dirty = true;
  // Keep the lossy counter planes sized to the (possibly grown) topology
  // before the next parallel epoch.
  if (loss_ != nullptr) loss_->configure(trees_.count(), topo_.size());
  if (nodes_.size() < topo_.size()) {
    // Brand-new node slots appended by Topology::add_node.
    for (NodeId u = static_cast<NodeId>(nodes_.size()); u < topo_.size(); ++u) {
      const net::Node& info = topo_.node(u);
      nodes_.emplace_back(
          u, std::vector<SensorType>(info.sensors.begin(), info.sensors.end()),
          make_controller(cfg_));
      for (TreeId t = 1; t < trees_.count(); ++t) {
        nodes_.back().add_slot(make_controller(cfg_));
      }
      nodes_.back().set_position(info.x, info.y);
      wire_node(nodes_.back());
      samplers_.emplace_back(cfg_.sampling);
    }
    // resize, not push_back: deliver() may already have grown the counters
    // to the topology size inside the add_node → retarget window.
    node_tx_.resize(nodes_.size(), 0);
    node_rx_.resize(nodes_.size(), 0);
  }
  // Revived nodes may have been redeployed at a new position, whichever
  // trees they end up in.
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    if (topo_.is_alive(u)) {
      nodes_[u].set_position(topo_.node(u).x, topo_.node(u).y);
    }
  }

  for (TreeId t : rebuilt) {
    const net::SpanningTree& tr = trees_.tree(t);
    // Pass 1: install the new structure everywhere, keeping the old
    // parents.
    std::vector<NodeId> old_parent(nodes_.size());
    for (NodeId u = 0; u < nodes_.size(); ++u) {
      old_parent[u] = nodes_[u].parent(t);
      if (tr.in_tree(u)) {
        const auto ch = tr.children(u);
        nodes_[u].set_children(t, std::vector<NodeId>(ch.begin(), ch.end()));
        nodes_[u].set_parent(t, tr.parent(u));
      } else {
        nodes_[u].set_children(t, {});
        nodes_[u].set_parent(t, kNoNode);
      }
    }

    // Pass 2: reconcile tables. A node whose parent changed must (a) be
    // dropped from its old parent's tables and (b) announce its subtree
    // ranges to its new parent.
    for (NodeId u = 0; u < nodes_.size(); ++u) {
      const NodeId old_p = old_parent[u];
      const NodeId new_p = nodes_[u].parent(t);
      if (new_p == old_p) continue;
      // A dead old parent drops the child too, so a revival does not
      // re-announce tuples of children it no longer has; its parent is
      // already kNoNode, so it sends nothing now.
      if (old_p != kNoNode && old_p < nodes_.size()) {
        nodes_[old_p].on_child_lost(t, u, epoch);
      }
      if (new_p != kNoNode && topo_.is_alive(u)) {
        nodes_[u].force_reannounce(t, epoch);
      }
    }
  }
}

void DirqNetwork::handle_node_death(NodeId dead, std::int64_t epoch) {
  current_epoch_ = epoch;
  retarget_trees(dead, epoch);
}

void DirqNetwork::handle_node_addition(NodeId added, std::int64_t epoch) {
  current_epoch_ = epoch;
  retarget_trees(added, epoch);
}

void DirqNetwork::handle_sensor_added(NodeId id, SensorType type,
                                      std::int64_t epoch) {
  current_epoch_ = epoch;
  engine_->plan_dirty = true;
  nodes_.at(id).attach_sensor(type);
  // The new sensor announces itself with the node's next sample; nothing
  // to push yet (there is no reading).
}

void DirqNetwork::handle_sensor_removed(NodeId id, SensorType type,
                                        std::int64_t epoch) {
  current_epoch_ = epoch;
  engine_->plan_dirty = true;
  nodes_.at(id).detach_sensor(type, epoch);
}

std::int64_t DirqNetwork::samples_taken() const {
  std::int64_t total = 0;
  for (const SamplingController& s : samplers_) total += s.samples_taken();
  return total;
}

std::int64_t DirqNetwork::samples_skipped() const {
  std::int64_t total = 0;
  for (const SamplingController& s : samplers_) total += s.samples_skipped();
  return total;
}

}  // namespace dirq::core
