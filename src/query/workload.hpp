// Workload generator reproducing the paper's §7 query stream:
// "Random queries which covered 20%, 40% and 60% of the nodes were
// generated every 20 epochs."
//
// "Covered" follows the paper's §7.1 definition: the involved set is the
// source nodes (whose *current reading* satisfies the predicate) PLUS the
// intermediate forwarding nodes on the tree paths from the root to every
// source. The generator seeds the value window at a random capable node's
// current reading and widens it one reading at a time until the involved
// set reaches the target percentage.
#pragma once

#include <cstdint>
#include <vector>

#include "data/field_model.hpp"
#include "net/spanning_tree.hpp"
#include "net/topology.hpp"
#include "query/query.hpp"
#include "sim/rng.hpp"

namespace dirq::query {

/// Ground-truth involvement of a query at a given instant.
struct Involvement {
  std::vector<NodeId> sources;   // readings match the predicate
  std::vector<NodeId> involved;  // sources + forwarders (root excluded)
};

/// Computes the ground-truth involvement of `q` against current readings
/// (region-constrained when the query carries one). The root is excluded
/// from `involved` (it originates the query).
Involvement compute_involvement(const RangeQuery& q, const net::Topology& topo,
                                const net::SpanningTree& tree,
                                const data::ReadingSource& env);

/// Ground truth for a conjunctive multi-attribute query: a source carries
/// every listed type and every reading satisfies its window.
Involvement compute_involvement(const MultiQuery& q, const net::Topology& topo,
                                const net::SpanningTree& tree,
                                const data::ReadingSource& env);

struct WorkloadConfig {
  double target_involved_fraction = 0.4;  // 20%, 40% or 60% in the paper
  /// Involved fraction is matched to within this tolerance when possible;
  /// the generator otherwise returns its closest achievable window.
  double tolerance = 0.02;
};

class WorkloadGenerator {
 public:
  WorkloadGenerator(const net::Topology& topo, const net::SpanningTree& tree,
                    const data::ReadingSource& env, WorkloadConfig cfg,
                    sim::Rng rng);

  /// Generates the next query at the given epoch. The environment must
  /// already be advanced to that epoch. Returns a query whose involvement
  /// is as close as achievable to the configured target.
  RangeQuery next(std::int64_t epoch);

  /// Generates a location-constrained query (paper §2's static location
  /// attribute): a random sub-region covering roughly `region_fraction` of
  /// the deployment area, with the value window targeting the configured
  /// involvement among the region's nodes.
  RangeQuery next_regional(std::int64_t epoch, double region_fraction);

  /// Generates a conjunctive multi-attribute query over `attribute_count`
  /// distinct sensor types (paper §2: "DirQ can use multiple attributes").
  /// Windows are seeded at one multi-sensor node's readings and widened
  /// around it, so the query always has at least one source.
  MultiQuery next_multi(std::int64_t epoch, std::size_t attribute_count);

  [[nodiscard]] const WorkloadConfig& config() const noexcept { return cfg_; }

 private:
  const net::Topology& topo_;
  const net::SpanningTree& tree_;
  const data::ReadingSource& env_;
  WorkloadConfig cfg_;
  sim::Rng rng_;
  QueryId next_id_ = 1;
};

}  // namespace dirq::query
