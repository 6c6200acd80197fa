// Counter-based synthetic environment: the "fast" backend behind the
// ReadingSource seam.
//
// The pinned Field (field_model.hpp) draws one sequential normal per node
// per type per epoch to evolve its AR(1) noise — at 500 nodes that stream
// is the profile's scaling floor (ROADMAP "Known floor"), and it cannot be
// skipped for suppressed nodes or jumped over, because the draw order IS
// the state. FastField reproduces the same dataset *properties* (§7:
// spatial correlation, temporal correlation, the gradient / diurnal /
// drifting-front structure — those deterministic components are shared
// arithmetic) while replacing both AR(1) streams with counter-based noise:
//
//   noise(stream, t) = lerp(X(b), X(b+1), frac)        b = t / S (block)
//   X(b) = scale * sum_{k=0}^{W-1} a^k eps(stream, b-k)
//
// a windowed exponentially-weighted sum of per-block innovations
// eps(stream, c) = CounterRng normal at counter c, linearly interpolated
// between block anchors. The block length S tracks the AR(1) time
// constant (-1/ln rho) and the per-block decay a = rho^S, so the lag-k
// autocorrelation approximates the pinned rho^k target (asserted within
// tolerance by tests/data/fast_field_test.cpp); `scale` maps the sum to
// the pinned process's stationary variance sigma^2/(1-rho^2).
//
// Because every value is a pure function of (seed, stream, epoch):
//   * per-epoch cost is independent of history — epoch 10 000 costs the
//     same whether you stepped or jumped;
//   * suppressed nodes cost nothing (nothing advances behind their back);
//   * out-of-order node queries are deterministic (bit-identical re-reads).
// Anchor pairs are memoised per block, which is a cache, not state:
// recomputing yields the same bits. Per-node anchors fill lazily on first
// read; the regional cells' anchors form one plane that advance_to
// refreshes, so readers only read it.
//
// Refresh cost. A node's noise anchors move once per block. On a one-block
// step the old high anchor becomes the low one and the new high anchor
// X(b+1) needs one new innovation: the node's ring keeps its W most recent
// ones (eps(c) at slot c mod W, the block's slots computed once in
// advance_to), and the sum runs in anchor_sum's order, so the anchor keeps
// its bits. A first read, a jump, a gap the sampling gate left, or a
// late-adopted node refills the window (W + 1 draws for both anchors).
// Each node's ring sits in whole cache lines of its own, because pool
// tasks split one type's batch across threads. Terrain anchors move every
// 2^kTerrainLog2Block epochs; the fronts' centres for both are folded once
// per terrain block, so a node's refresh costs one exp per front.
//
// Fast is a *different* deterministic dataset from Pinned for the same
// seed. Goldens stay pinned; fast is for scale (see README "Environment
// backends").
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "data/field_geometry.hpp"
#include "data/field_model.hpp"
#include "data/reading_source.hpp"
#include "net/topology.hpp"
#include "sim/cache_line.hpp"
#include "sim/counter_rng.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace dirq::data {

/// One sensor type's counter-based field over a fixed node population.
/// Mirrors Field's interface; see the header comment for the noise model.
class FastField {
 public:
  /// `rng` plays the same role as Field's: its seed roots the counter
  /// streams and its "bumps" substream drives the identical front-geometry
  /// draws, so a FastField and a Field built from the same substream share
  /// gradient, diurnal phase, and front shapes exactly.
  FastField(SensorType type, FieldParams params, const net::Topology& topo,
            sim::Rng rng);

  /// Advances to `epoch` (monotonic, matching the ReadingSource contract).
  /// Cost is independent of the jump width — no history is replayed: O(1),
  /// plus one refill of the regional cell plane (W draws per cell, 2W
  /// after a jump) when the regional block changes.
  void advance_to(std::int64_t epoch);

  /// Reading of the given node at the current epoch (same contract as
  /// Field::reading, including lazy adoption of late-deployed nodes).
  /// The slowly drifting bump terrain is linearly interpolated between
  /// per-node anchors 2^kTerrainLog2Block epochs apart (second-order
  /// error < 1e-3 of a reading — far below the noise floor), so a reading
  /// differs from deterministic_at + noises by at most that interpolation
  /// hair while staying a pure function of (seed, node, epoch).
  [[nodiscard]] double reading(NodeId node) const;

  /// Batch form: fills `out[i]` for `nodes[i]`; bit-identical to per-node
  /// `reading()` calls in any order.
  void readings(std::span<const NodeId> nodes, std::span<double> out) const;

  /// Field value at an arbitrary position excluding per-node noise
  /// (deterministic structure + regional noise) — the spatial-coherence
  /// probe, same contract as Field::field_at.
  [[nodiscard]] double field_at(double x, double y) const;

  /// The purely deterministic component (base + diurnal + gradient +
  /// fronts, no noise at all). field_at(x,y) - deterministic_at(x,y) is
  /// exactly the regional noise of the cell at (x,y); tests use this to
  /// probe the regional process in isolation.
  [[nodiscard]] double deterministic_at(double x, double y) const;

  [[nodiscard]] std::int64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] SensorType type() const noexcept { return type_; }
  [[nodiscard]] const FieldParams& params() const noexcept { return params_; }

 private:
  static constexpr int kMaxWindow = 16;
  /// Terrain (bump-field) anchors are spaced 32 epochs apart: the fronts
  /// drift <= 0.08 units/epoch against sigmas of 20-25, so the linear
  /// interpolation error between anchors is second-order (< 4e-3 of a
  /// reading for every shipped parameter set — an order of magnitude
  /// below each type's noise floor) while amortising the exp()
  /// evaluations to a small fraction of a call per reading.
  static constexpr int kTerrainLog2Block = 5;

  /// One counter-based noise process (regional or per-node): the windowed
  /// EW-sum parameters derived from (rho, sigma).
  struct NoiseProcess {
    int log2_block = 3;   // S = 1 << log2_block epochs per block
    int window = 4;       // innovations per windowed sum (W)
    double decay = 0.5;   // a = rho^S
    double scale = 1.0;   // unit-variance sum -> stationary AR(1) sd
    std::array<double, kMaxWindow> weight{};  // a^j, j < window
    void init(double rho, double sigma);
  };

  /// Per-node hot state, packed into exactly one cache line: the memoised
  /// bump-terrain / node-noise anchors plus the node's static planar
  /// gradient term and regional cell (persistent data, not cache — kept
  /// here so a reading touches one line instead of four arrays; the
  /// epoch loop is memory-bound once the draws are amortised).
  struct alignas(64) NodeCache {
    std::int64_t terrain_block = std::numeric_limits<std::int64_t>::min();
    std::int64_t noise_block = std::numeric_limits<std::int64_t>::min();
    double bump_lo = 0.0, bump_hi = 0.0;
    double noise_lo = 0.0, noise_hi = 0.0;
    double gradient = 0.0;          // static planar term of this node
    std::uint32_t cell = 0;         // regional grid cell of this node
  };
  static_assert(sizeof(NodeCache) == 64);

  /// One grid cell's regional anchors for regional_block_ and the next.
  struct CellAnchors {
    double lo = 0.0, hi = 0.0;
  };

  // Fronts: identical initial geometry to Field's (same substream), but
  // positions are evaluated closed-form (triangle-wave reflection of
  // start + velocity * t), so jumps cost nothing.
  struct Bump {
    double cx0, cy0;  // start centre
    double vx, vy;    // drift velocity
    double amplitude;
    double sigma;
  };
  /// A drifting front's centre at one epoch.
  struct FrontCentre {
    double x = 0.0, y = 0.0;
  };

  void advance_derived();
  /// Refills cell_anchors_ for regional_block_; `previous` is the block
  /// the plane held before (its hi anchors are reused on a one-block step).
  void refresh_cell_anchors(std::int64_t previous);
  [[nodiscard]] double anchor_sum(const NoiseProcess& p, std::uint64_t stream,
                                  std::int64_t anchor) const;
  [[nodiscard]] double regional_value(std::size_t cell) const {
    const CellAnchors& a = cell_anchors_[cell];
    return a.lo + (a.hi - a.lo) * regional_frac_;
  }
  [[nodiscard]] FrontCentre centre_at(const Bump& b, std::int64_t epoch) const;
  /// Sum of the fronts at (x, y), front i centred at centres[i].
  [[nodiscard]] double bumps_at(double x, double y,
                                std::span<const FrontCentre> centres) const;
  /// Moves the node's noise anchors to node_block_ (see fast_field.cpp).
  void refresh_node_noise(NodeCache& c, NodeId node) const;
  void refresh_diurnal();
  void adopt_new_nodes() const;
  void init_node_cache(std::size_t from) const;

  SensorType type_;
  FieldParams params_;
  sim::CounterRng crng_;
  std::int64_t epoch_ = 0;
  const net::Topology* topo_ = nullptr;

  FieldGeometry geo_;
  double diurnal_ = 0.0;

  std::vector<Bump> bumps_;

  NoiseProcess regional_noise_;
  NoiseProcess node_noise_;
  std::uint64_t regional_stream_ = 0;  // + cell index
  std::uint64_t node_stream_ = 0;      // + node index
  mutable std::vector<NodeCache> node_cache_;
  /// Per node, its node-noise innovations: eps(c) at slot c mod W of its
  /// ring_stride_ doubles, whole cache lines of its own, since pool tasks
  /// split one type's batch.
  mutable sim::CacheLineVector<double> rings_;
  std::size_t ring_stride_ = 8;
  /// Regional anchors per grid cell for regional_block_, refreshed by
  /// advance_derived whenever the block changes.
  std::vector<CellAnchors> cell_anchors_;

  // Per-epoch derived state (advance_to): block indices, interpolation
  // fractions, and the base + diurnal sum, so the per-reading hot path is
  // pure lerps.
  double base_diurnal_ = 0.0;
  // No block yet: the constructor's advance_derived fills what derives
  // from each block (front centres, ring slots, the cell plane).
  std::int64_t terrain_block_ = std::numeric_limits<std::int64_t>::min();
  std::int64_t node_block_ = std::numeric_limits<std::int64_t>::min();
  // Front centres of the terrain anchors at terrain_block_ and the next.
  std::vector<FrontCentre> front_lo_, front_hi_;
  // Ring slot of eps(node_block_ + 1 - j), j < the node window.
  std::array<std::uint8_t, kMaxWindow> ring_slot_{};
  std::int64_t regional_block_ = std::numeric_limits<std::int64_t>::min();
  double terrain_frac_ = 0.0;
  double node_frac_ = 0.0;
  double regional_frac_ = 0.0;
};

/// Bundle of one FastField per sensor type, advanced in lock-step — the
/// counter-based twin of Environment.
class FastEnvironment final : public ReadingSource {
 public:
  FastEnvironment(const net::Topology& topo, std::size_t sensor_type_count,
                  sim::Rng rng);

  void advance_to(std::int64_t epoch) override;
  [[nodiscard]] double reading(NodeId node, SensorType type) const override;
  void readings(SensorType type, std::span<const NodeId> nodes,
                std::span<double> out) const override;
  [[nodiscard]] const FastField& field(SensorType type) const;
  // Each type is its own FastField with its own memo caches — per-type
  // batches touch disjoint state.
  [[nodiscard]] bool concurrent_type_batches() const noexcept override {
    return true;
  }
  // Within one type, readings only read the cell plane (advance_to fills
  // it) and per-node state (caches and innovation rings, each in whole
  // cache lines) is disjoint across any node partition, so
  // disjoint chunks of one batch may run concurrently too (see
  // ReadingSource for the adoption precondition).
  [[nodiscard]] bool concurrent_intra_type_chunks() const noexcept override {
    return true;
  }
  [[nodiscard]] std::size_t type_count() const noexcept override {
    return fields_.size();
  }
  [[nodiscard]] std::int64_t epoch() const noexcept override { return epoch_; }

 private:
  std::vector<FastField> fields_;
  std::int64_t epoch_ = 0;
};

/// Backend factory: builds the environment an experiment samples from.
/// Pinned constructs data::Environment with exactly the arguments the
/// driver always used (bit-identical streams, goldens untouched); Fast
/// constructs FastEnvironment from the same substream.
std::unique_ptr<ReadingSource> make_environment(EnvironmentBackend backend,
                                                const net::Topology& topo,
                                                std::size_t sensor_type_count,
                                                sim::Rng rng);

/// Canonical CLI / schema names ("pinned" / "fast").
[[nodiscard]] const char* backend_name(EnvironmentBackend backend) noexcept;

}  // namespace dirq::data
