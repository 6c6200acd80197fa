// Branch-light sweep over the struct-of-arrays sampling-gate mirror.
//
// The epoch engine keeps, per sensor type, a dense array of
// `SamplingController::next_due` epochs aligned with the type's plan-order
// node list. Every epoch the engine must turn that array into the list of
// due nodes (the reading batch). Doing it with one data-dependent branch
// per slot defeats vectorization, so the sweep is split into two passes:
//
//   1. gate_scan_mask — a pure arithmetic loop (sign bit of due-epoch-1)
//      producing a 0/1 byte mask. No branches, no stores that depend on
//      the data: gcc auto-vectorizes it at -O3 on baseline x86-64
//      (verified with -fopt-info-vec, see bench/micro_kernel.cpp
//      BM_GateScan).
//   2. gate_compact — an unconditional-store compaction (`out[m] = n[j];
//      slots[m] = j; m += mask[j]`) that stays branch-free in the loop
//      body. The slots let the crossing sweep find each due reading's
//      plan-slot state.
//
// gate_filter_ref is the obvious scalar branchy loop, kept as the test
// oracle (tests/core/gate_scan_test.cpp asserts equivalence on randomized
// due vectors).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/types.hpp"

namespace dirq::core {

/// Writes mask[j] = 1 iff due[j] <= epoch for j in [0, n). The mask is a
/// plain byte array so it can be consumed both by the compaction below and
/// by the per-node epoch walk, which branches on it per plan slot.
///
/// The body is the sign bit of (due - epoch - 1) rather than the obvious
/// `due[j] <= epoch`: baseline x86-64 (SSE2) has no packed 64-bit compare,
/// so gcc only vectorizes the comparison form under -msse4.2+, while
/// subtract + logical shift are packed ops on every target and vectorize
/// at -O3 everywhere (16-byte vectors on the default target; confirmed
/// via -fopt-info-vec, see BM_GateScan). The wrap-around subtraction is
/// exact whenever |due - epoch| < 2^63, which holds for any pair of
/// simulation epochs.
inline void gate_scan_mask(const std::int64_t* due, std::size_t n,
                           std::int64_t epoch, std::uint8_t* mask) noexcept {
  const std::uint64_t bound = static_cast<std::uint64_t>(epoch) + 1;
  for (std::size_t j = 0; j < n; ++j) {
    mask[j] = static_cast<std::uint8_t>(
        (static_cast<std::uint64_t>(due[j]) - bound) >> 63);
  }
}

/// Compacts nodes[j] into `out` and j itself into `slots` for every set
/// mask bit in [begin, end) (both must have room for end - begin
/// entries); returns the count written. The stores are unconditional and
/// the cursor advances by the mask byte, so the loop body has no
/// data-dependent branch.
inline std::size_t gate_compact(const NodeId* nodes, const std::uint8_t* mask,
                                std::size_t begin, std::size_t end,
                                NodeId* out, std::uint32_t* slots) noexcept {
  std::size_t m = 0;
  for (std::size_t j = begin; j < end; ++j) {
    out[m] = nodes[j];
    slots[m] = static_cast<std::uint32_t>(j);
    m += mask[j];
  }
  return m;
}

/// Scalar reference: the branchy filter the two passes above replace.
/// Kept as the oracle for tests and the baseline for BM_GateScan.
inline std::size_t gate_filter_ref(const std::int64_t* due,
                                   const NodeId* nodes, std::size_t begin,
                                   std::size_t end, std::int64_t epoch,
                                   NodeId* out) noexcept {
  std::size_t m = 0;
  for (std::size_t j = begin; j < end; ++j) {
    if (due[j] <= epoch) out[m++] = nodes[j];
  }
  return m;
}

}  // namespace dirq::core
