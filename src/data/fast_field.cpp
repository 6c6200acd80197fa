#include "data/fast_field.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace dirq::data {

namespace {

/// Triangle-wave reflection of p into [lo, lo + w]: the closed form of
/// "drift and bounce off the walls", so any epoch's front position costs
/// O(1) instead of one step per elapsed epoch.
double fold(double p, double lo, double w) {
  if (!(w > 0.0)) return lo;
  double q = std::fmod(p - lo, 2.0 * w);
  if (q < 0.0) q += 2.0 * w;
  return lo + (q <= w ? q : 2.0 * w - q);
}

/// Set bits of `x`, counted in registers: the baseline x86-64 target has no
/// POPCNT instruction, and std::popcount compiles to a libgcc call there.
constexpr int popcount64(std::uint64_t x) noexcept {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

/// Innovation draw for the windowed sums: one counter_hash, with the
/// popcount gaussian and the smoothing uniform taken from the SAME word
/// (unlike CounterRng::normal_at, which spends a second finaliser round
/// decorrelating them). Sharing the word adds cov(popcount, uniform) =
/// 1/4, which the constant corrects exactly — variance is
/// 16 + 1/12 + 2*(1/4); the residual higher-moment blemish washes out in
/// the W-term CLT sum this feeds. Refills are the fast backend's hottest
/// loop, so the draw is half of normal_at's cost by design.
double innovation_at(std::uint64_t stream, std::uint64_t counter) noexcept {
  const std::uint64_t z = sim::counter_hash(stream, counter);
  constexpr double kInvSd = 0.24556365272101743;  // 1/sqrt(16 + 1/12 + 1/2)
  return (static_cast<double>(popcount64(z)) - 32.5 +
          static_cast<double>(z >> 11) * 0x1.0p-53) *
         kInvSd;
}

}  // namespace

void FastField::NoiseProcess::init(double rho, double sigma) {
  const double r = std::clamp(rho, 0.0, 0.999999);
  // Stationary sd of the pinned AR(1) process this approximates.
  const double target_sd = sigma / std::sqrt(1.0 - r * r);
  // Block length tracks the AR(1) time constant tau = -1/ln(rho): half a
  // time constant per block. Coarser blocks are cheaper but the
  // piecewise-linear lerp then holds mid-lag correlation too high above
  // the rho^k target (linear value-noise has a fat autocorrelation
  // shoulder out to 2 blocks); tau/2 keeps every tested lag within ~0.1
  // of the target. Power of two so the hot path is a shift.
  const double tau = r > 0.0 ? -1.0 / std::log(r) : 1.0;
  const double s = std::clamp(tau / 2.0, 1.0, 4096.0);
  log2_block = 0;
  while ((std::int64_t{1} << (log2_block + 1)) <= static_cast<std::int64_t>(s)) {
    ++log2_block;
  }
  const double block = static_cast<double>(std::int64_t{1} << log2_block);
  decay = std::pow(r, block);

  // Window size: truncate once the tail weight a^W drops under 15 %. The
  // truncated variance (a^2W ~ 2 %) is folded back in by `scale`; the
  // truncation's long-lag correlation deficit stays inside the test
  // tolerance at 4 blocks out (tail 0.2 does not). decay lands around
  // 0.5-0.75 for S ~ tau/2, so W is typically 4-6 — the refill loop is
  // the backend's hottest path, so every draw counts.
  window = 2;
  if (decay > 1e-9) {
    window = static_cast<int>(
        std::ceil(std::log(0.15) / std::log(std::min(decay, 0.999))));
    window = std::clamp(window, 2, kMaxWindow);
  }

  // Scale the unit-innovation windowed sum to the target stationary sd,
  // correcting for (a) the window's own variance and (b) the phase-average
  // variance shrink of lerping between correlated anchors.
  const double a2 = decay * decay;
  double var_x = static_cast<double>(window);
  double cov = static_cast<double>(window - 1);
  if (a2 < 1.0) {
    var_x = (1.0 - std::pow(a2, window)) / (1.0 - a2);
    cov = decay * (1.0 - std::pow(a2, window - 1)) / (1.0 - a2);
  }
  const double c = var_x > 0.0 ? cov / var_x : 0.0;
  scale = target_sd / std::sqrt(var_x * (2.0 + c) / 3.0);

  // a^j by repeated multiplication, the order every windowed sum uses.
  weight[0] = 1.0;
  for (int j = 1; j < window; ++j) weight[j] = weight[j - 1] * decay;
}

FastField::FastField(SensorType type, FieldParams params,
                     const net::Topology& topo, sim::Rng rng)
    : type_(type), params_(params), crng_(rng.seed()), topo_(&topo) {
  geo_.init(topo, params_.regional_cell);

  // Identical front geometry to the pinned Field: same substream, same
  // draw order (see Field's constructor).
  sim::Rng bump_rng = rng.substream("bumps");
  for (std::size_t b = 0; b < params_.bump_count; ++b) {
    Bump bump;
    bump.cx0 = bump_rng.uniform(geo_.min_x, geo_.min_x + geo_.area_w);
    bump.cy0 = bump_rng.uniform(geo_.min_y, geo_.min_y + geo_.area_h);
    const double angle = bump_rng.uniform(0.0, 2.0 * std::numbers::pi);
    bump.vx = params_.bump_drift * std::cos(angle);
    bump.vy = params_.bump_drift * std::sin(angle);
    bump.amplitude = params_.bump_amplitude * bump_rng.uniform(0.5, 1.0) *
                     (bump_rng.bernoulli(0.5) ? 1.0 : -1.0);
    bump.sigma = params_.bump_sigma * bump_rng.uniform(0.7, 1.3);
    bumps_.push_back(bump);
  }

  regional_noise_.init(params_.regional_rho, params_.regional_sigma);
  node_noise_.init(params_.node_rho, params_.node_sigma);
  regional_stream_ = crng_.substream("regional").stream();
  node_stream_ = crng_.substream("node-noise").stream();
  node_cache_.assign(geo_.node_count(), NodeCache{});
  ring_stride_ = (static_cast<std::size_t>(node_noise_.window) + 7) / 8 * 8;
  rings_.assign(geo_.node_count() * ring_stride_, 0.0);
  front_lo_.resize(bumps_.size());
  front_hi_.resize(bumps_.size());
  cell_anchors_.assign(geo_.cell_count(), CellAnchors{});
  init_node_cache(0);
  advance_derived();
}

void FastField::refresh_diurnal() {
  diurnal_ = params_.diurnal_amplitude *
             std::sin(2.0 * std::numbers::pi * static_cast<double>(epoch_) /
                          params_.diurnal_period +
                      params_.phase);
}

void FastField::advance_derived() {
  refresh_diurnal();
  base_diurnal_ = params_.base + diurnal_;
  const auto split = [this](int log2_block, std::int64_t& block, double& frac) {
    block = epoch_ >> log2_block;
    frac = static_cast<double>(epoch_ - (block << log2_block)) /
           static_cast<double>(std::int64_t{1} << log2_block);
  };
  const std::int64_t terrain_before = terrain_block_;
  split(kTerrainLog2Block, terrain_block_, terrain_frac_);
  if (terrain_block_ != terrain_before) {
    // Both terrain anchors' front centres, folded once per block.
    for (std::size_t b = 0; b < bumps_.size(); ++b) {
      front_lo_[b] = centre_at(bumps_[b], terrain_block_ << kTerrainLog2Block);
      front_hi_[b] =
          centre_at(bumps_[b], (terrain_block_ + 1) << kTerrainLog2Block);
    }
  }
  const std::int64_t node_before = node_block_;
  split(node_noise_.log2_block, node_block_, node_frac_);
  if (node_block_ != node_before) {
    // Ring slot of eps(node_block_ + 1 - j), the high anchor's window.
    const std::int64_t w = node_noise_.window;
    for (std::int64_t j = 0; j < w; ++j) {
      ring_slot_[static_cast<std::size_t>(j)] =
          static_cast<std::uint8_t>(((node_block_ + 1 - j) % w + w) % w);
    }
  }
  const std::int64_t previous = regional_block_;
  split(regional_noise_.log2_block, regional_block_, regional_frac_);
  if (regional_block_ != previous) refresh_cell_anchors(previous);
}

void FastField::refresh_cell_anchors(std::int64_t previous) {
  // A one-block step reuses each cell's high anchor as its new low one
  // (the common case in the epoch loop); anchors are pure functions of
  // (stream, cell, block), so this equals a full recomputation
  // bit-for-bit.
  const bool step = previous == regional_block_ - 1;
  for (std::size_t cell = 0; cell < cell_anchors_.size(); ++cell) {
    const std::uint64_t stream = sim::counter_hash(regional_stream_, cell);
    CellAnchors& a = cell_anchors_[cell];
    a.lo = step ? a.hi : anchor_sum(regional_noise_, stream, regional_block_);
    a.hi = anchor_sum(regional_noise_, stream, regional_block_ + 1);
  }
}

void FastField::advance_to(std::int64_t epoch) {
  if (epoch < epoch_) {
    throw std::invalid_argument("FastField::advance_to: epochs are monotonic");
  }
  if (epoch == epoch_) return;
  epoch_ = epoch;
  advance_derived();
}

double FastField::anchor_sum(const NoiseProcess& p, std::uint64_t stream,
                             std::int64_t anchor) const {
  // X(anchor) = scale * sum_{j=0}^{W-1} a^j eps(anchor - j): a pure
  // function of (stream, anchor) with a fixed summation order, so every
  // path that produces this anchor — fresh refill, random access, or the
  // sequential hi->lo reuse below — yields bit-identical values.
  double x = 0.0;
  for (int j = 0; j < p.window; ++j) {
    x += p.weight[j] *
         innovation_at(stream, static_cast<std::uint64_t>(anchor - j));
  }
  return p.scale * x;
}

FastField::FrontCentre FastField::centre_at(const Bump& b,
                                            std::int64_t epoch) const {
  const double t = static_cast<double>(epoch);
  return {fold(b.cx0 + b.vx * t, geo_.min_x, geo_.area_w),
          fold(b.cy0 + b.vy * t, geo_.min_y, geo_.area_h)};
}

double FastField::bumps_at(double x, double y,
                           std::span<const FrontCentre> centres) const {
  double v = 0.0;
  for (std::size_t i = 0; i < bumps_.size(); ++i) {
    const Bump& b = bumps_[i];
    const double dx = x - centres[i].x;
    const double dy = y - centres[i].y;
    const double z = (dx * dx + dy * dy) / (2.0 * b.sigma * b.sigma);
    // Same far-field cutoff rationale as Field::field_value: exp(-z) for
    // z > 80 is below any contribution a front can make to a reading.
    if (z > 80.0) continue;
    v += b.amplitude * std::exp(-z);
  }
  return v;
}

double FastField::deterministic_at(double x, double y) const {
  std::vector<FrontCentre> now;
  for (const Bump& b : bumps_) now.push_back(centre_at(b, epoch_));
  return base_diurnal_ +
         params_.gradient_x * (x - geo_.min_x) / geo_.area_w +
         params_.gradient_y * (y - geo_.min_y) / geo_.area_h +
         bumps_at(x, y, now);
}

double FastField::field_at(double x, double y) const {
  return deterministic_at(x, y) + regional_value(geo_.cell_of(x, y));
}

void FastField::adopt_new_nodes() const {
  // Late-deployed nodes (paper §4.2): capture positions. Unlike the pinned
  // backend (whose AR(1) history starts at zero for newcomers), the
  // counter noise is a pure function of the node index, so an adopted node
  // reads its full stationary noise immediately — an acceptable semantic
  // difference for a backend that is never golden-compared to Pinned.
  const std::size_t old = geo_.adopt_new_nodes(*topo_);
  node_cache_.resize(geo_.node_count(), NodeCache{});
  rings_.resize(geo_.node_count() * ring_stride_, 0.0);
  init_node_cache(old);
}

void FastField::init_node_cache(std::size_t from) const {
  // Shared by construction and late-node adoption so the static per-node
  // terms can never drift between the two populations.
  for (std::size_t u = from; u < geo_.node_count(); ++u) {
    node_cache_[u].gradient =
        params_.gradient_x * (geo_.node_x[u] - geo_.min_x) / geo_.area_w +
        params_.gradient_y * (geo_.node_y[u] - geo_.min_y) / geo_.area_h;
    node_cache_[u].cell = static_cast<std::uint32_t>(geo_.node_cell[u]);
  }
}

double FastField::reading(NodeId node) const {
  if (node >= geo_.node_count()) {
    adopt_new_nodes();
    if (node >= geo_.node_count()) {
      // Same contract as the pinned backend (geo_.node_x.at(node)): an id
      // the topology has never seen is a clean error, not UB.
      throw std::out_of_range("FastField::reading: unknown node id");
    }
  }
  NodeCache& c = node_cache_[node];  // bounded by the adoption check above
  if (c.terrain_block != terrain_block_) {
    const double x = geo_.node_x[node];
    const double y = geo_.node_y[node];
    // Sequential advance reuses the high anchor as the new low one; both
    // anchors are pure functions of the epoch, so the reuse is exact.
    c.bump_lo = c.terrain_block == terrain_block_ - 1
                    ? c.bump_hi
                    : bumps_at(x, y, front_lo_);
    c.bump_hi = bumps_at(x, y, front_hi_);
    c.terrain_block = terrain_block_;
  }
  if (c.noise_block != node_block_) refresh_node_noise(c, node);
  return base_diurnal_ + c.gradient +
         c.bump_lo + (c.bump_hi - c.bump_lo) * terrain_frac_ +
         regional_value(c.cell) +
         c.noise_lo + (c.noise_hi - c.noise_lo) * node_frac_;
}

void FastField::refresh_node_noise(NodeCache& c, NodeId node) const {
  // The high anchor X(b + 1) sums eps(b + 1 - j) for j < W; the node's
  // ring keeps them at slot (counter mod W). A one-block step reuses the
  // high anchor as the low one and the ring's W - 1 newest innovations, so
  // it draws one; anything else (first read, jump, gated gap, late
  // adoption) refills the window from the low anchor's draws. Both sums
  // run in anchor_sum's order over the same values, so every anchor keeps
  // its bits whichever path produced it.
  const NoiseProcess& p = node_noise_;
  const std::uint64_t stream = sim::counter_hash(node_stream_, node);
  double* ring = rings_.data() + node * ring_stride_;
  if (c.noise_block == node_block_ - 1) {
    c.noise_lo = c.noise_hi;
  } else {
    double x = 0.0;
    for (int j = 0; j < p.window; ++j) {
      const double e =
          innovation_at(stream, static_cast<std::uint64_t>(node_block_ - j));
      x += p.weight[j] * e;
      if (j + 1 < p.window) ring[ring_slot_[j + 1]] = e;
    }
    c.noise_lo = p.scale * x;
  }
  ring[ring_slot_[0]] =
      innovation_at(stream, static_cast<std::uint64_t>(node_block_ + 1));
  double x = 0.0;
  for (int j = 0; j < p.window; ++j) x += p.weight[j] * ring[ring_slot_[j]];
  c.noise_hi = p.scale * x;
  c.noise_block = node_block_;
}

void FastField::readings(std::span<const NodeId> nodes,
                         std::span<double> out) const {
  for (std::size_t i = 0; i < nodes.size(); ++i) out[i] = reading(nodes[i]);
}

FastEnvironment::FastEnvironment(const net::Topology& topo,
                                 std::size_t sensor_type_count, sim::Rng rng) {
  fields_.reserve(sensor_type_count);
  for (SensorType t = 0; t < sensor_type_count; ++t) {
    fields_.emplace_back(t, default_params(t), topo, rng.substream("field", t));
  }
}

void FastEnvironment::advance_to(std::int64_t epoch) {
  for (FastField& f : fields_) f.advance_to(epoch);
  epoch_ = epoch;
}

double FastEnvironment::reading(NodeId node, SensorType type) const {
  return fields_.at(type).reading(node);
}

void FastEnvironment::readings(SensorType type, std::span<const NodeId> nodes,
                               std::span<double> out) const {
  fields_.at(type).readings(nodes, out);
}

const FastField& FastEnvironment::field(SensorType type) const {
  return fields_.at(type);
}

std::unique_ptr<ReadingSource> make_environment(EnvironmentBackend backend,
                                                const net::Topology& topo,
                                                std::size_t sensor_type_count,
                                                sim::Rng rng) {
  if (backend == EnvironmentBackend::Fast) {
    return std::make_unique<FastEnvironment>(topo, sensor_type_count, rng);
  }
  return std::make_unique<Environment>(topo, sensor_type_count, rng);
}

const char* backend_name(EnvironmentBackend backend) noexcept {
  return backend == EnvironmentBackend::Fast ? "fast" : "pinned";
}

}  // namespace dirq::data
