#include "query/workload.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dirq::query {

namespace {

/// The root-path union (root excluded) behind an involved set: `in` marks
/// members by node id, `members` lists them in the order they joined.
struct PathUnion {
  std::vector<std::uint8_t> in;
  std::vector<NodeId> members;

  /// Adds `node`'s root path, walking parents up to the first node already
  /// in the union: the union is made of whole root paths, so everything
  /// above that node is in it too. A node outside the tree adds nothing.
  void absorb(const net::SpanningTree& tree, NodeId node) {
    if (!tree.in_tree(node)) return;
    for (NodeId u = node; u != tree.root(); u = tree.parent(u)) {
      if (u >= in.size()) in.resize(u + 1, 0);
      if (in[u] != 0) return;
      in[u] = 1;
      members.push_back(u);
    }
  }
};

}  // namespace

Involvement compute_involvement(const MultiQuery& q, const net::Topology& topo,
                                const net::SpanningTree& tree,
                                const data::ReadingSource& env) {
  Involvement result;
  if (q.predicates.empty()) return result;
  for (const net::Node& n : topo.nodes()) {
    if (!n.alive || !tree.in_tree(n.id) || n.id == tree.root()) continue;
    if (q.region && !q.region->contains(n.x, n.y)) continue;
    bool all = true;
    for (const AttributePredicate& p : q.predicates) {
      if (!n.has_sensor(p.type) || !p.matches(env.reading(n.id, p.type))) {
        all = false;
        break;
      }
    }
    if (all) result.sources.push_back(n.id);
  }
  // Sources -> sources + forwarders.
  PathUnion involved;
  for (NodeId s : result.sources) involved.absorb(tree, s);
  result.involved = std::move(involved.members);
  std::sort(result.involved.begin(), result.involved.end());
  return result;
}

WorkloadGenerator::WorkloadGenerator(const net::Topology& topo,
                                     const net::SpanningTree& tree,
                                     const data::ReadingSource& env,
                                     WorkloadConfig cfg, sim::Rng rng)
    : topo_(topo), tree_(tree), env_(env), cfg_(cfg), rng_(rng) {}

namespace {

struct Candidate {
  double value;
  NodeId node;
};

}  // namespace

/// Grows a value window around a random seed candidate until the involved
/// set (sources + forwarders) reaches `target` nodes, and returns the
/// tight [lo, hi] value window. Candidates must be sorted by value.
static std::pair<double, double> grow_window(
    std::span<const Candidate> candidates, std::size_t target,
    const net::SpanningTree& tree, sim::Rng& rng) {
  const std::size_t seed = rng.index(candidates.size());
  std::size_t lo_idx = seed;
  std::size_t hi_idx = seed;
  PathUnion involved;
  auto absorb = [&](std::size_t idx) {
    involved.absorb(tree, candidates[idx].node);
  };
  absorb(seed);
  while (involved.members.size() < target &&
         (lo_idx > 0 || hi_idx + 1 < candidates.size())) {
    // Widen toward the value-closer neighbour so the window stays a
    // contiguous value range (range queries are intervals).
    const double lo_gap = lo_idx > 0
        ? candidates[lo_idx].value - candidates[lo_idx - 1].value
        : std::numeric_limits<double>::infinity();
    const double hi_gap = hi_idx + 1 < candidates.size()
        ? candidates[hi_idx + 1].value - candidates[hi_idx].value
        : std::numeric_limits<double>::infinity();
    if (lo_gap <= hi_gap) {
      --lo_idx;
      absorb(lo_idx);
    } else {
      ++hi_idx;
      absorb(hi_idx);
    }
  }
  // Keep the window edges tight on the boundary readings (plus a float-
  // robustness hair). Tight windows minimise boundary false positives:
  // widening the edges into the gap toward excluded readings only pulls
  // their theta-widened tuples into overlap.
  const double pad = 1e-9 * std::max(1.0, std::abs(candidates[hi_idx].value));
  return {candidates[lo_idx].value - pad, candidates[hi_idx].value + pad};
}

RangeQuery WorkloadGenerator::next(std::int64_t epoch) {
  // Candidate sensor types: those actually present in the network.
  const std::vector<SensorType> types = topo_.sensor_types_present();
  RangeQuery q;
  q.id = next_id_++;
  q.epoch = epoch;
  q.type = types.empty()
               ? kSensorTemperature
               : types[rng_.index(types.size())];

  // Current readings of all capable, attached nodes, sorted by value.
  std::vector<Candidate> candidates;
  for (const net::Node& n : topo_.nodes()) {
    if (!n.alive || !n.has_sensor(q.type) || !tree_.in_tree(n.id)) continue;
    if (n.id == tree_.root()) continue;
    candidates.push_back({env_.reading(n.id, q.type), n.id});
  }
  if (candidates.empty()) {
    q.lo = 0.0;
    q.hi = 0.0;
    return q;
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.value < b.value; });

  // The denominator for "percentage of nodes involved": non-root network
  // members attached to the tree.
  const std::size_t population = tree_.size() > 0 ? tree_.size() - 1 : 0;
  const auto target = static_cast<std::size_t>(
      std::llround(cfg_.target_involved_fraction * static_cast<double>(population)));
  std::tie(q.lo, q.hi) = grow_window(candidates, target, tree_, rng_);
  return q;
}

RangeQuery WorkloadGenerator::next_regional(std::int64_t epoch,
                                            double region_fraction) {
  RangeQuery q = next(epoch);  // type + value window from the full network

  // Deployment bounding box.
  net::BBox deploy = net::BBox::empty();
  for (const net::Node& n : topo_.nodes()) {
    if (n.alive) deploy = deploy.join(net::BBox::point(n.x, n.y));
  }
  if (deploy.is_empty()) return q;

  // A random sub-box with side = sqrt(fraction) of each dimension, centred
  // on a uniformly chosen point (clamped inside the deployment).
  region_fraction = std::clamp(region_fraction, 0.01, 1.0);
  const double scale = std::sqrt(region_fraction);
  const double w = deploy.width() * scale;
  const double h = deploy.height() * scale;
  const double cx = rng_.uniform(deploy.min_x + w / 2.0, deploy.max_x - w / 2.0);
  const double cy = rng_.uniform(deploy.min_y + h / 2.0, deploy.max_y - h / 2.0);
  q.region = net::BBox{cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0};
  return q;
}

MultiQuery WorkloadGenerator::next_multi(std::int64_t epoch,
                                         std::size_t attribute_count) {
  MultiQuery q;
  q.id = next_id_++;
  q.epoch = epoch;

  // Seed node: must carry at least `attribute_count` sensor types so the
  // query is satisfiable. Fall back to the best-equipped node.
  const net::Node* seed = nullptr;
  std::vector<NodeId> eligible;
  for (const net::Node& n : topo_.nodes()) {
    if (!n.alive || n.id == tree_.root() || !tree_.in_tree(n.id)) continue;
    if (n.sensors.size() >= attribute_count) eligible.push_back(n.id);
    if (seed == nullptr || n.sensors.size() > seed->sensors.size()) {
      seed = &n;
    }
  }
  if (!eligible.empty()) {
    seed = &topo_.node(eligible[rng_.index(eligible.size())]);
  }
  if (seed == nullptr) return q;  // empty network: empty (unsatisfiable) query

  std::vector<SensorType> types = seed->sensors;
  rng_.shuffle(std::span<SensorType>(types));
  types.resize(std::min(types.size(), attribute_count));
  std::sort(types.begin(), types.end());

  // Window per attribute: centred on the seed's reading, wide enough to
  // include its value-neighbourhood (half the configured involvement per
  // attribute — conjunction narrows the joint source set anyway).
  for (SensorType t : types) {
    std::vector<Candidate> candidates;
    for (const net::Node& n : topo_.nodes()) {
      if (!n.alive || !n.has_sensor(t) || !tree_.in_tree(n.id)) continue;
      if (n.id == tree_.root()) continue;
      candidates.push_back({env_.reading(n.id, t), n.id});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.value < b.value;
              });
    const double centre = env_.reading(seed->id, t);
    const auto per_attr_target = static_cast<std::size_t>(std::llround(
        cfg_.target_involved_fraction * static_cast<double>(tree_.size())));
    // Widen symmetrically in rank space around the seed's reading.
    std::size_t pos = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i].node == seed->id ||
          candidates[i].value <= centre) {
        pos = i;
      }
    }
    const std::size_t half = std::max<std::size_t>(1, per_attr_target / 2);
    const std::size_t lo_idx = pos >= half ? pos - half : 0;
    const std::size_t hi_idx = std::min(candidates.size() - 1, pos + half);
    const double pad = 1e-9 * std::max(1.0, std::abs(centre));
    q.predicates.push_back(AttributePredicate{
        t, candidates[lo_idx].value - pad, candidates[hi_idx].value + pad});
  }
  return q;
}

}  // namespace dirq::query
