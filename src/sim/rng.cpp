#include "sim/rng.hpp"

#include <algorithm>
#include <cmath>

namespace dirq::sim {

Mt19937_64::Mt19937_64(result_type seed) noexcept {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::twist() noexcept {
  constexpr std::size_t kShift = 156;  // the recurrence's middle offset m
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kMatrix = 0xB5026F5AA96619E9ULL;
  auto next = [](result_type cur, result_type succ, result_type far) {
    const result_type y = (cur & kUpper) | (succ & ~kUpper);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
  };
  // libstdc++'s three loops, with the second one's trip count made even
  // (its last word is peeled) so both long loops compile to vector code.
  std::array<result_type, kStateWords>& x = state_;
  constexpr std::size_t kN = kStateWords;
  for (std::size_t k = 0; k < kN - kShift; ++k) {
    x[k] = next(x[k], x[k + 1], x[k + kShift]);
  }
  for (std::size_t k = kN - kShift; k < kN - 2; ++k) {
    x[k] = next(x[k], x[k + 1], x[k - (kN - kShift)]);
  }
  x[kN - 2] = next(x[kN - 2], x[kN - 1], x[kShift - 2]);
  x[kN - 1] = next(x[kN - 1], x[0], x[kShift - 1]);
  pos_ = 0;
}

// Pass one of `normals`: the polar method's rejection loop, run for
// y.size() draws at once, straight from the engine's state block. Words
// are converted to candidate coordinates a fixed-size group at a time (a
// loop the compiler turns into vector code), then the group's pairs are
// compacted: every candidate goes to slot k, and k advances only when the
// pair is accepted, so the 21 % rejections cost no branch. Words a group
// converts past the last pair the call needs stay unconsumed. Near the end
// of the block, pairs go through operator() one at a time.
void Rng::accept_polar_pairs(std::span<double> y, std::span<double> r2) {
  constexpr std::size_t kGroup = 16;  // words per conversion step
  // Exactly std::normal_distribution's candidate coordinate and test.
  auto coord = [](std::uint64_t word) { return 2.0 * canonical(word) - 1.0; };
  const std::size_t n = y.size();
  std::size_t k = 0;
  auto offer = [&](double px, double py) {
    const double rr = px * px + py * py;
    y[k] = py;
    r2[k] = rr;
    k += !(rr > 1.0) & (rr != 0.0);
  };
  Mt19937_64& e = engine_;
  while (k < n) {
    if (Mt19937_64::kStateWords - e.pos_ < kGroup) {
      const double px = coord(e());
      offer(px, coord(e()));
      continue;
    }
    const std::uint64_t* w = e.state_.data() + e.pos_;
    std::array<double, kGroup> c{};
    for (std::size_t j = 0; j < kGroup; ++j) {
      c[j] = coord(Mt19937_64::temper(w[j]));
    }
    const std::size_t pairs = std::min(kGroup / 2, n - k);
    for (std::size_t j = 0; j < pairs; ++j) offer(c[2 * j], c[2 * j + 1]);
    e.pos_ += 2 * pairs;
  }
}

void Rng::normals(double mean, double stddev, std::span<double> out) {
  // Accepted pairs go through L1-sized chunks between the two passes.
  constexpr std::size_t kChunk = 128;
  std::array<double, kChunk> ys{};
  std::array<double, kChunk> r2s{};
  for (std::size_t base = 0; base < out.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, out.size() - base);
    accept_polar_pairs(std::span(ys.data(), n), std::span(r2s.data(), n));
    // Pass two, with libstdc++'s operation order: y * mult, then scaled.
    for (std::size_t i = 0; i < n; ++i) {
      const double mult = std::sqrt(-2 * std::log(r2s[i]) / r2s[i]);
      const double v = ys[i] * mult;
      out[base + i] = v * stddev + mean;
    }
  }
}

}  // namespace dirq::sim
