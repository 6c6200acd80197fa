// Query model: one-shot conjunctive range queries (paper §3: "Acquire all
// temperature readings that are currently between 22 C and 25 C"). DirQ
// routes each predicate's (type, [lo, hi]) against the range tables of
// that type (§4.1), over one attribute or several (§2).
//
// MultiQuery is the one form the network carries; a RangeQuery, the
// single-attribute form the workload generator, the serve cache and SRT
// use, converts to the one-predicate MultiQuery with the same id, epoch
// and region.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/bbox.hpp"
#include "sim/types.hpp"

namespace dirq::query {

/// One conjunct of a query: a sensor type and a value window.
struct AttributePredicate {
  SensorType type = kSensorTemperature;
  double lo = 0.0;
  double hi = 0.0;

  /// True if a reading satisfies the predicate.
  [[nodiscard]] bool matches(double value) const noexcept {
    return value >= lo && value <= hi;
  }

  /// True if the value window overlaps a stored [min, max] range — the
  /// forwarding test every DirQ node applies (§4.1).
  [[nodiscard]] bool overlaps(double range_min, double range_max) const noexcept {
    return lo <= range_max && hi >= range_min;
  }
};

/// Single-attribute range query: one predicate plus the query's identity.
struct RangeQuery : AttributePredicate {
  RangeQuery() = default;
  RangeQuery(QueryId id_, SensorType type_, double lo_, double hi_,
             std::int64_t epoch_,
             std::optional<net::BBox> region_ = std::nullopt)
      : AttributePredicate{type_, lo_, hi_}, id(id_), epoch(epoch_),
        region(std::move(region_)) {}

  QueryId id = 0;
  std::int64_t epoch = 0;  // injection time
  /// Optional static location attribute (paper §2): when present, only
  /// nodes inside the region qualify, and dissemination additionally
  /// prunes on subtree bounding boxes.
  std::optional<net::BBox> region;

  [[nodiscard]] std::string describe() const;
};

/// Conjunctive multi-attribute range query (paper §2: unlike SRT's single
/// attribute, "DirQ can use multiple attributes"). A source node must
/// carry every listed sensor type and satisfy every window; dissemination
/// prunes a branch as soon as ANY attribute's subtree range misses.
///
/// Note the inherent conservatism: per-type subtree ranges cannot prove
/// that one single node satisfies all conjuncts, only that each conjunct
/// is satisfiable somewhere in the subtree — multi-attribute dissemination
/// therefore overshoots more than its single-attribute projection, never
/// less coverage.
struct MultiQuery {
  MultiQuery() = default;
  /// The one-predicate form of a range query (same id, epoch and
  /// region); implicit, so every query entry point takes either form.
  MultiQuery(const RangeQuery& q)
      : id(q.id), predicates{q}, epoch(q.epoch), region(q.region) {}

  QueryId id = 0;
  std::vector<AttributePredicate> predicates;
  std::int64_t epoch = 0;
  std::optional<net::BBox> region;

  [[nodiscard]] std::string describe() const;
};

}  // namespace dirq::query
