// DirQ protocol messages.
//
// Four message kinds cross the tree (paper §4):
//   UpdateMessage    — child -> parent; new aggregate (min(THmin),
//                      max(THmax)) for one sensor type, or a retraction
//                      when the subtree no longer carries the type (§4.2).
//   QueryMessage     — parent -> child; a query, over one attribute or
//                      several, being directed down the tree toward
//                      relevant nodes.
//   EhrMessage       — root -> everyone, hourly; the expected query count
//                      for the next hour plus the derived network-wide
//                      update budget Umax/Hr that parameterises ATC (§6,
//                      Fig. 6).
//   LocationAnnounce — child -> parent; the sender's subtree bounding box
//                      (§2's optional location attribute).
//
// Every message carries the TreeId of the spanning tree it belongs to:
// the multi-sink query plane runs N trees over one topology, and a node's
// per-tree protocol slots dispatch on this tag. Single-sink deployments
// leave it at the default 0, so the wire format (and every golden) is
// unchanged for the paper's configuration.
#pragma once

#include <variant>

#include "query/query.hpp"
#include "sim/types.hpp"

namespace dirq::core {

struct UpdateMessage {
  NodeId from = kNoNode;
  TreeId tree = 0;
  SensorType type = 0;
  double min = 0.0;
  double max = 0.0;
  /// False = retraction: the sender's subtree no longer has this type.
  bool has_range = true;
};

/// A query in flight; a range query travels as its one-predicate form.
struct QueryMessage {
  query::MultiQuery q;
  TreeId tree = 0;
};

/// Static-attribute announcement: the sender's subtree bounding box
/// (paper §2's optional location attribute). Sent once at bootstrap and on
/// churn; parents fold child boxes into their own subtree box.
struct LocationAnnounce {
  NodeId from = kNoNode;
  TreeId tree = 0;
  net::BBox box;
};

struct EhrMessage {
  TreeId tree = 0;
  double expected_queries_per_hour = 0.0;  // EHr
  double umax_per_hour = 0.0;              // fMax(k,d) * EHr (core/atc.hpp)
  std::uint32_t alive_nodes = 0;           // for fair per-node budget shares
  std::int64_t round = 0;                  // flood round (duplicate suppression)
};

using Message =
    std::variant<UpdateMessage, QueryMessage, EhrMessage, LocationAnnounce>;

/// The spanning tree a message belongs to (the per-sink cost ledgers and
/// the per-tree slot dispatch both key on this).
inline TreeId message_tree(const Message& msg) noexcept {
  return std::visit([](const auto& m) { return m.tree; }, msg);
}

}  // namespace dirq::core
