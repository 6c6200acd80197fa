// Rng determinism, substream independence, and distribution sanity; the
// in-tree engine and the batched normal kernel against their std oracles.
#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

namespace dirq::sim {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng a(0), b(0);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), 0u);
}

TEST(Rng, SubstreamsAreIndependentOfDrawCount) {
  Rng master(7);
  Rng a1 = master.substream("alpha");
  // Consuming from one substream must not perturb another derivation.
  Rng beta = master.substream("beta");
  for (int i = 0; i < 1000; ++i) beta.next_u64();
  Rng a2 = master.substream("alpha");
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a1.next_u64(), a2.next_u64());
}

TEST(Rng, NamedSubstreamsDiffer) {
  Rng master(7);
  Rng a = master.substream("alpha");
  Rng b = master.substream("beta");
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, IndexedSubstreamsDiffer) {
  Rng master(7);
  Rng a = master.substream("node", 1);
  Rng b = master.substream("node", 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(99);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng r(99);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_int(0, 5));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 5);
}

TEST(Rng, NormalMatchesMoments) {
  Rng r(1234);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-0.5));
    EXPECT_TRUE(r.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliRateIsRoughlyP) {
  Rng r(6);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialIsPositiveWithMeanOneOverLambda) {
  Rng r(8);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = r.exponential(2.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng r(11);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> orig = v;
  r.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, PickReturnsContainedElement) {
  Rng r(12);
  const std::array<int, 4> items{10, 20, 30, 40};
  for (int i = 0; i < 100; ++i) {
    const int x = r.pick(std::span<const int>(items));
    EXPECT_TRUE(std::find(items.begin(), items.end(), x) != items.end());
  }
}

// --- the in-tree engine and normal kernel vs. the std oracles ------------

// The std engine Rng(seed) must reproduce: std::mt19937_64 seeded with the
// SplitMix64 mix of the seed (zero remapped first).
std::mt19937_64 reference_engine(std::uint64_t seed) {
  std::uint64_t s = seed == 0 ? 0x853C49E6748FEA9BULL : seed;
  return std::mt19937_64(splitmix64(s));
}

constexpr std::array<std::uint64_t, 6> kOracleSeeds{
    0, 1, 42, 5489, 0x853C49E6748FEA9BULL, ~std::uint64_t{0}};

TEST(Mt19937_64, MatchesStdEngineAcrossTwists) {
  for (const std::uint64_t seed : kOracleSeeds) {
    Mt19937_64 mine(seed);
    std::mt19937_64 ref(seed);
    for (std::size_t i = 0; i < 5 * Mt19937_64::kStateWords + 7; ++i) {
      ASSERT_EQ(mine(), ref()) << "seed " << seed << " word " << i;
    }
  }
}

TEST(Rng, StreamMatchesStdEngineIncludingZeroSeedRemap) {
  for (const std::uint64_t seed : kOracleSeeds) {
    Rng r(seed);
    std::mt19937_64 ref = reference_engine(seed);
    for (std::size_t i = 0; i < 4 * Mt19937_64::kStateWords + 5; ++i) {
      ASSERT_EQ(r.next_u64(), ref()) << "seed " << seed << " word " << i;
    }
  }
}

TEST(Rng, DistributionsMatchStdOnTheStdEngine) {
  Rng r(77);
  std::mt19937_64 ref = reference_engine(77);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(r.uniform(-2.0, 3.0),
              std::uniform_real_distribution<double>(-2.0, 3.0)(ref));
    ASSERT_EQ(r.uniform_int(-5, 1000),
              std::uniform_int_distribution<std::int64_t>(-5, 1000)(ref));
    ASSERT_EQ(r.bernoulli(0.3), std::bernoulli_distribution(0.3)(ref));
    ASSERT_EQ(r.exponential(1.5),
              std::exponential_distribution<double>(1.5)(ref));
  }
}

TEST(U64ToDouble, EqualsStaticCast) {
  constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t k63 = std::uint64_t{1} << 63;
  const std::vector<std::uint64_t> words{
      0, 1, k53 - 1, k53, k53 + 1, k53 + 3, k63 - 1, k63, k63 + 1,
      k63 + 1024, k63 + 1025, ~std::uint64_t{0} - 1024, ~std::uint64_t{0}};
  for (const std::uint64_t u : words) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(u64_to_double(u)),
              std::bit_cast<std::uint64_t>(static_cast<double>(u)))
        << u;
  }
  std::mt19937_64 words_rng(3);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t u = words_rng();
    ASSERT_EQ(u64_to_double(u), static_cast<double>(u)) << u;
  }
}

TEST(Canonical, ClampsWordsThatRoundUpToOne) {
  const double below_one = std::nextafter(1.0, 0.0);
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (std::uint64_t back = 0; back < 1024; ++back) {
    ASSERT_EQ(canonical(kMax - back), below_one) << back;
  }
  // The largest word that does not round up already scales to the same
  // value; the one below the next rounding step does not.
  EXPECT_EQ(canonical(kMax - 1024), below_one);
  EXPECT_LT(canonical(kMax - 3072), below_one);
  EXPECT_EQ(canonical(0), 0.0);
  EXPECT_EQ(canonical(std::uint64_t{1} << 63), 0.5);
}

#ifdef __GLIBCXX__
// A generator that yields one fixed word, to feed generate_canonical.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type word;
  result_type operator()() const { return word; }
};

TEST(Canonical, EqualsGenerateCanonical) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  std::vector<std::uint64_t> words{0,          1,          kMax,
                                   kMax - 1023, kMax - 1024, kMax - 1025,
                                   kMax - 2048, std::uint64_t{1} << 63};
  std::mt19937_64 words_rng(4);
  for (int i = 0; i < 10000; ++i) words.push_back(words_rng());
  for (const std::uint64_t u : words) {
    FixedWord g{u};
    ASSERT_EQ(canonical(u), (std::generate_canonical<double, 53>(g))) << u;
  }
}

// libstdc++'s std::normal_distribution is the polar method with one cached
// value; a fresh distribution per draw throws the cached value away, which
// is the stream every pinned-field golden was recorded against.
template <typename Engine>
double fresh_std_normal(Engine& ref, double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(ref);
}

::testing::AssertionResult same_bits(double got, double want) {
  if (std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << got << " vs " << want;
}

TEST(RngNormals, EqualFreshStdNormalPerDraw) {
  constexpr std::array<std::size_t, 8> kSizes{0, 1, 2, 155, 311, 312, 313, 1000};
  // Odd numbers of raw words before the batch put its pairs at odd block
  // offsets, so some accepted pair straddles a twist.
  constexpr std::array<std::size_t, 4> kLeads{0, 1, 3, 311};
  for (const std::size_t n : kSizes) {
    for (const std::size_t lead : kLeads) {
      Rng r(2024 + n);
      std::mt19937_64 ref = reference_engine(2024 + n);
      for (std::size_t i = 0; i < lead; ++i) ASSERT_EQ(r.next_u64(), ref());
      std::vector<double> got(n);
      r.normals(1.5, 0.25, got);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(same_bits(got[i], fresh_std_normal(ref, 1.5, 0.25)))
            << "n " << n << " lead " << lead << " draw " << i;
      }
      // The batch consumed exactly the words the per-draw loop did.
      ASSERT_EQ(r.next_u64(), ref()) << "n " << n << " lead " << lead;
    }
  }
}

// Counts the words a reference engine hands out.
struct CountingEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  std::mt19937_64 engine;
  std::uint64_t words = 0;
  result_type operator()() {
    ++words;
    return engine();
  }
};

TEST(RngNormals, InterleavedWithOddRawDrawsStaysBitIdentical) {
  constexpr std::array<std::size_t, 8> kSizes{0, 1, 2, 155, 311, 312, 313, 1000};
  Rng r(31337);
  CountingEngine ref{reference_engine(31337)};
  std::size_t straddles = 0;  // accepted pairs split across a twist
  for (std::size_t round = 0; round < 48; ++round) {
    const std::size_t n = kSizes[round % kSizes.size()];
    std::vector<double> got(n);
    r.normals(-3.0, 2.0, got);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(same_bits(got[i], fresh_std_normal(ref, -3.0, 2.0)))
          << "round " << round << " draw " << i;
      // The accepted pair is the last two words the draw consumed.
      straddles += (ref.words - 2) % Mt19937_64::kStateWords ==
                   Mt19937_64::kStateWords - 1;
    }
    ASSERT_TRUE(same_bits(r.normal(0.5, 3.0), fresh_std_normal(ref, 0.5, 3.0)))
        << "round " << round;
    // An odd number of raw words, then 0-3 uniforms (one word each), moves
    // the next batch's pairs between even and odd block offsets.
    for (std::size_t i = 0; i < 1 + 2 * (round % 3); ++i) {
      ASSERT_EQ(r.next_u64(), ref());
    }
    for (std::size_t i = 0; i < round % 4; ++i) {
      ASSERT_EQ(r.uniform(0.0, 1.0),
                std::uniform_real_distribution<double>(0.0, 1.0)(ref));
    }
  }
  EXPECT_GE(straddles, 3u);
}
#endif  // __GLIBCXX__

TEST(RngNormals, SingleDrawEqualsBatchOfOne) {
  Rng a(5);
  Rng b(5);
  std::vector<double> batch(700);
  a.normals(2.0, 0.5, batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(batch[i], b.normal(2.0, 0.5)) << i;
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Splitmix64, AvalanchesOnSequentialSeeds) {
  std::uint64_t s1 = 1, s2 = 2;
  const std::uint64_t a = splitmix64(s1);
  const std::uint64_t b = splitmix64(s2);
  // Hamming distance should be near 32 for a good mixer.
  const int dist = __builtin_popcountll(a ^ b);
  EXPECT_GT(dist, 10);
  EXPECT_LT(dist, 54);
}

TEST(Fnv1a, DistinctLabelsDistinctHashes) {
  EXPECT_NE(fnv1a("placement"), fnv1a("workload"));
  EXPECT_NE(fnv1a(""), fnv1a(" "));
}

}  // namespace
}  // namespace dirq::sim
