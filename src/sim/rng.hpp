// Deterministic random-number generation with named substreams.
//
// Every randomised component of the reproduction (placement, field model,
// workload, MAC jitter, ...) takes an explicit `Rng`, derived from a single
// master seed through SplitMix64 so that changing one component's draw
// count never perturbs another component's stream. This is what makes the
// figure benches exactly reproducible run-to-run.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <string_view>

namespace dirq::sim {

/// SplitMix64 step: the standard seeding/stream-splitting mixer.
/// Public because tests assert its avalanche behaviour.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a hash of a label, used to derive named substreams.
constexpr std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Correctly rounded `static_cast<double>(u)` in bit operations and double
/// arithmetic only: branch-free (GCC's x86-64 conversion branches on the
/// sign bit, which mispredicts half the time on uniform words) and
/// vectorizable. Each 32-bit half lands exactly in a double's mantissa
/// (hi * 2^32 + 2^84 and lo + 2^52) and removing the offsets is exact, so
/// the only rounding is that of the final sum hi * 2^32 + lo.
constexpr double u64_to_double(std::uint64_t u) noexcept {
  const double hi =
      std::bit_cast<double>((u >> 32) | 0x4530000000000000ULL) -
      0x1.00000001p84;  // 2^84 + 2^52
  const double lo =
      std::bit_cast<double>((u & 0xFFFFFFFFULL) | 0x4330000000000000ULL);
  return hi + lo;
}

/// `std::generate_canonical<double, 53>` of one 64-bit word: u / 2^64,
/// with the words that round up to 1.0 (u >= 2^64 - 1024, the top 54 bits
/// all set) clamped to nextafter(1.0, 0.0) as libstdc++ does. The clamp
/// moves those words down by 1024, which makes them round to 2^64 - 2048
/// instead: 1 - 2^-53 after scaling. It is integer-only (the +1 carries
/// out of the 54 bits exactly when all are set), so it vectorizes.
constexpr double canonical(std::uint64_t u) noexcept {
  const std::uint64_t rounds_up = ((u >> 10) + 1) >> 54;
  return u64_to_double(u - (rounds_up << 10)) * 0x1p-64;
}

/// MT19937-64, output-identical to `std::mt19937_64` (same seeding, twist
/// and tempering), kept in-tree so `Rng::normals` can read the state block
/// directly. The twist is branch-free.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;

  explicit Mt19937_64(result_type seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (pos_ == kStateWords) twist();
    return temper(state_[pos_++]);
  }

 private:
  friend class Rng;

  static constexpr result_type temper(result_type z) noexcept {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  void twist() noexcept;

  std::array<result_type, kStateWords> state_;
  std::size_t pos_ = kStateWords;
};

/// Seeded MT19937-64 generator with convenience distributions.
///
/// The engine gives the words of `std::mt19937_64`. `uniform`,
/// `uniform_int`, `bernoulli` and `exponential` run the standard library's
/// distributions on it, so they equal the same calls on `std::mt19937_64`.
/// `normal`/`normals` give the bits of a fresh libstdc++
/// `std::normal_distribution<double>` per draw on any standard library: the
/// polar method, one accepted pair per draw, the pair's second value thrown
/// away. That discarded value is part of the golden contract (the pinned
/// field's streams, hence every scenario golden, are recorded against it):
/// caching it for the next draw would change every stream.
///
/// Copyable (the engine is just state); copying forks the stream, which is
/// occasionally useful in tests but should be avoided in simulation code —
/// prefer `substream()` which derives an independent generator.
class Rng {
 public:
  /// Seeds the engine. A literal zero seed is remapped to a fixed non-zero
  /// constant (mt19937_64 handles zero fine, but remapping keeps substream
  /// derivation well-mixed for trivially chosen master seeds).
  explicit Rng(std::uint64_t seed) : engine_(mix_seed(seed)), seed_(seed) {}

  /// Derives an independent generator for a named component.
  /// rng.substream("placement") and rng.substream("field") never collide
  /// regardless of how many values either one consumes.
  [[nodiscard]] Rng substream(std::string_view label) const {
    std::uint64_t s = seed_ ^ fnv1a(label);
    return Rng(splitmix64(s));
  }

  /// Derives an independent generator for an indexed component
  /// (e.g. one stream per node).
  [[nodiscard]] Rng substream(std::string_view label, std::uint64_t index) const {
    std::uint64_t s = seed_ ^ fnv1a(label);
    s = splitmix64(s) ^ (index * 0x9E3779B97F4A7C15ULL);
    return Rng(splitmix64(s));
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    double v = 0.0;
    normals(mean, stddev, std::span<double>(&v, 1));
    return v;
  }

  /// Fills `out` with consecutive Gaussian draws: `out[i]` equals the i-th
  /// of `out.size()` successive `normal(mean, stddev)` calls. Allocation-
  /// free; accepts polar pairs straight from the engine's state block,
  /// then takes log/sqrt over the accepted pairs in a second pass.
  void normals(double mean, double stddev, std::span<double> out);

  /// Exponential with the given rate (lambda).
  double exponential(double lambda) {
    return std::exponential_distribution<double>(lambda)(engine_);
  }

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Uniformly chosen index into a container of the given size; size must
  /// be non-zero.
  std::size_t index(std::size_t size) {
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(size) - 1));
  }

  /// Uniformly chosen element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    return items[index(items.size())];
  }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = index(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Raw 64-bit draw, for callers building their own distributions.
  std::uint64_t next_u64() { return engine_(); }

  /// The seed this generator was constructed with.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  static std::uint64_t mix_seed(std::uint64_t seed) {
    std::uint64_t s = seed == 0 ? 0x853C49E6748FEA9BULL : seed;
    return splitmix64(s);
  }

  void accept_polar_pairs(std::span<double> y, std::span<double> r2);

  Mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace dirq::sim
