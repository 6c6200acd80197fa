// Single source of truth for the scenario regression grid: the
// seeds x topology-size x loss-rate axes and the experiment config every
// cell runs under. Included by both the golden-checked test
// (scenario_matrix_test.cpp) and the regenerator tool
// (tools/scenario_goldens.cpp) so the two can never drift apart.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/experiment.hpp"

namespace dirq::scenarios {

inline constexpr std::uint64_t kSeeds[] = {1, 42, 1337};
inline constexpr std::size_t kNodeCounts[] = {30, 50};
inline constexpr double kLossRates[] = {0.0, 0.15};

inline constexpr std::int64_t kEpochs = 1200;
inline constexpr std::int64_t kQueryPeriod = 20;

inline core::ExperimentConfig make_config(std::uint64_t seed,
                                          std::size_t nodes, double loss) {
  core::ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.placement.node_count = nodes;
  cfg.epochs = kEpochs;
  cfg.query_period = kQueryPeriod;
  cfg.loss_rate = loss;
  cfg.network.mode = core::NetworkConfig::ThetaMode::Fixed;
  cfg.network.fixed_pct = 5.0;
  cfg.keep_records = false;
  return cfg;
}

/// Visits every grid cell in the canonical order (the order of the golden
/// table rows): seeds outermost, then node counts, then loss rates.
template <typename Fn>
void for_each_cell(Fn&& fn) {
  for (std::uint64_t seed : kSeeds) {
    for (std::size_t nodes : kNodeCounts) {
      for (double loss : kLossRates) {
        fn(seed, nodes, loss);
      }
    }
  }
}

// --- LMAC tier ------------------------------------------------------------
// Same experiment, but queries and updates ride the TDMA slot schedule
// (TransportKind::Lmac): one sensing epoch per LMAC frame, multi-frame
// query dissemination, MAC-timeout death detection. A smaller seed axis
// keeps the tier fast under asan; the loss axis is shared so CRC loss is
// exercised on both backends.

inline constexpr std::uint64_t kLmacSeeds[] = {1, 42};

inline core::ExperimentConfig make_lmac_config(std::uint64_t seed,
                                               std::size_t nodes,
                                               double loss) {
  core::ExperimentConfig cfg = make_config(seed, nodes, loss);
  cfg.transport = core::TransportKind::Lmac;
  return cfg;
}

template <typename Fn>
void for_each_lmac_cell(Fn&& fn) {
  for (std::uint64_t seed : kLmacSeeds) {
    for (std::size_t nodes : kNodeCounts) {
      for (double loss : kLossRates) {
        fn(seed, nodes, loss);
      }
    }
  }
}

// --- multi-attribute tier --------------------------------------------------
// The query mix blends conjunctive multi-attribute queries into the
// single-range stream (ExperimentConfig::multi_attr_fraction /
// multi_attr_count). Golden coverage here keeps the mix axis on the same
// determinism leash as the loss and transport axes: any drift in the
// multi-attr substream layout or the MultiQuery dissemination path fails
// loudly. 30-node cells only — the tier guards the mix, not the topology.

inline constexpr std::uint64_t kMultiSeeds[] = {1, 42};
inline constexpr double kMultiFractions[] = {0.3, 1.0};
inline constexpr std::size_t kMultiCounts[] = {2, 3};

inline core::ExperimentConfig make_multi_config(std::uint64_t seed,
                                                double fraction,
                                                std::size_t count) {
  core::ExperimentConfig cfg = make_config(seed, 30, 0.0);
  cfg.multi_attr_fraction = fraction;
  cfg.multi_attr_count = count;
  return cfg;
}

template <typename Fn>
void for_each_multi_cell(Fn&& fn) {
  for (std::uint64_t seed : kMultiSeeds) {
    for (double fraction : kMultiFractions) {
      for (std::size_t count : kMultiCounts) {
        fn(seed, fraction, count);
      }
    }
  }
}

// --- mode tier -------------------------------------------------------------
// Every tier above runs fixed theta 5 % with the sampling gate off. This
// one pins the other two consume modes the epoch walk serves: ATC (every
// reading feeds the controller, whose end-of-epoch step adjusts theta) and
// fixed theta under the sampling gate (margin 0.5 — skipped samples, the
// next_due mirror). Instant cells cross seeds x sizes x modes x loss; an
// LMAC ATC row per seed and loss rate adds the deferred transport.

enum class ModeKind { Atc, Gated };

inline constexpr std::uint64_t kModeSeeds[] = {1, 42};
inline constexpr ModeKind kModes[] = {ModeKind::Atc, ModeKind::Gated};
inline constexpr std::size_t kModeLmacNodes = 30;

inline core::ExperimentConfig make_mode_config(std::uint64_t seed,
                                               std::size_t nodes,
                                               ModeKind mode, double loss,
                                               bool lmac) {
  core::ExperimentConfig cfg = make_config(seed, nodes, loss);
  if (mode == ModeKind::Atc) {
    cfg.network.mode = core::NetworkConfig::ThetaMode::Atc;
  } else {
    cfg.network.sampling.enabled = true;
    cfg.network.sampling.margin_frac = 0.5;
  }
  if (lmac) cfg.transport = core::TransportKind::Lmac;
  return cfg;
}

/// Instant cells first (seeds, node counts, modes, loss rates — outermost
/// first), then the LMAC ATC cells (seeds, loss rates).
template <typename Fn>
void for_each_mode_cell(Fn&& fn) {
  for (std::uint64_t seed : kModeSeeds) {
    for (std::size_t nodes : kNodeCounts) {
      for (ModeKind mode : kModes) {
        for (double loss : kLossRates) {
          fn(seed, nodes, mode, loss, false);
        }
      }
    }
  }
  for (std::uint64_t seed : kModeSeeds) {
    for (double loss : kLossRates) {
      fn(seed, kModeLmacNodes, ModeKind::Atc, loss, true);
    }
  }
}

// --- large-topology tier ---------------------------------------------------
// Scaled placements (density-preserving area, lifted k/d bounds) at sizes
// the paper never reaches. Short runs — the tier guards the scaling path
// (spatial-index link construction, cached traversals, flat hot state)
// structurally and for determinism; exact goldens stay with the 30/50-node
// tiers where they are cheap to regenerate.

inline constexpr std::size_t kScaleNodeCounts[] = {200, 500};
inline constexpr std::int64_t kScaleEpochs = 400;

inline core::ExperimentConfig make_scale_config(std::uint64_t seed,
                                                std::size_t nodes) {
  core::ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.placement = net::scaled_placement(nodes);
  cfg.epochs = kScaleEpochs;
  cfg.query_period = kQueryPeriod;
  cfg.network.mode = core::NetworkConfig::ThetaMode::Fixed;
  cfg.network.fixed_pct = 5.0;
  cfg.keep_records = false;
  return cfg;
}

template <typename Fn>
void for_each_scale_cell(Fn&& fn) {
  for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{42}}) {
    for (std::size_t nodes : kScaleNodeCounts) {
      fn(seed, nodes);
    }
  }
}

}  // namespace dirq::scenarios
