// Section-5 analytical cost model: closed forms for flooding and DirQ on a
// complete k-ary tree of depth d, and the fMax bound that the Adaptive
// Threshold Control enforces at runtime.
//
// Cost unit: 1 per transmission, 1 per reception (paper §5). The tree has
//   N(k, d)  = (k^{d+1} - 1)/(k - 1) nodes  and  N - 1 links.
//
// Eq. (3): CFTotal = N + 2 * links                 (broadcast tx + all rx)
// Eq. (4): CFTotal = (3 k^{d+1} - 2k - 1)/(k - 1)  (same, expanded)
// Eq. (6): CQDmax  = (k^d + k^{d+1} - k - 1)/(k - 1)
//          — worst-case directed dissemination: every non-leaf transmits
//            down to all children (unicast, so tx = rx); leaves only
//            receive.
// Eq. (7): CUDmax  = 2 (k^{d+1} - k)/(k - 1)
//          — every non-root node sends one update to its parent (tx = rx).
// Eq. (8): fMax    = (CFTotal - CQDmax) / CUDmax
//          — max updates per query for CTDmax = CQDmax + f*CUDmax to stay
//            below CFTotal. Paper's worked example: k=2, d=4 -> ~0.76.
//
// All functions are exact in integer arithmetic where possible and require
// k >= 2 (a 1-ary "tree" is a chain; the k-1 denominators vanish).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/types.hpp"

namespace dirq::analysis {

/// k^e for small exponents, checked against overflow.
std::int64_t ipow(std::int64_t k, std::int64_t e);

/// Node count of a complete k-ary tree of depth d (root at depth 0).
std::int64_t tree_nodes(std::int64_t k, std::int64_t d);

/// Leaf count: k^d.
std::int64_t tree_leaves(std::int64_t k, std::int64_t d);

/// Eq. (3)/(4): total cost of flooding one query.
std::int64_t flooding_cost(std::int64_t k, std::int64_t d);

/// Flooding cost of an arbitrary topology: N + 2 * links (Eq. 3).
std::int64_t flooding_cost_graph(std::int64_t nodes, std::int64_t links);

/// Eq. (6): worst-case cost of directing one query (all leaves relevant).
std::int64_t cqd_max(std::int64_t k, std::int64_t d);

/// Eq. (7): worst-case cost of one network-wide update wave.
std::int64_t cud_max(std::int64_t k, std::int64_t d);

/// Eq. (8): maximum updates per query keeping DirQ below flooding.
double f_max(std::int64_t k, std::int64_t d);

/// CTDmax for a given update frequency f (updates per query): Eq. before (8).
double ctd_max(std::int64_t k, std::int64_t d, double f);

// --- graph generalisations ---------------------------------------------
// The paper derives Eqs. (4)-(8) for a complete k-ary tree; its simulated
// network (50 nodes, random placement) is not one. The same §5 arguments
// applied to an arbitrary rooted tree give the forms below; the root uses
// them at runtime to derive Umax/Hr for the actual network (the ATC
// rationale in core/atc.hpp).

/// Eq. (6) generalised: worst-case directed dissemination over a tree with
/// `nodes` members of which `internal_nodes` have children — one multicast
/// transmission per internal node, one reception per non-root node.
std::int64_t cqd_max_graph(std::int64_t nodes, std::int64_t internal_nodes);

/// Eq. (7) generalised: one update (tx + rx) across each tree edge.
std::int64_t cud_max_graph(std::int64_t nodes);

/// Eq. (8) generalised: (CFTotal(graph) - CQDmax) / CUDmax.
double f_max_graph(std::int64_t nodes, std::int64_t links,
                   std::int64_t internal_nodes);

/// Umax/Hr in update *messages* per hour (Fig. 6's unit): fMax(graph) is
/// in network-wide update waves per query, one wave is nodes - 1
/// messages, and a negative fMax (flooding already cheaper than one
/// directed dissemination) clamps to a zero budget. Single source of
/// truth for the value the root floods in the hourly EHr broadcast and
/// for the per-hour series the experiment driver records — the two must
/// agree bit-for-bit. Returns 0 when the tree has fewer than 2 members.
double umax_messages_per_hour(std::int64_t nodes, std::int64_t links,
                              std::int64_t internal_nodes,
                              double expected_queries_per_hour);

}  // namespace dirq::analysis
