// RunningStat / Ewma / TimeSeries behaviour.
#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace dirq::sim {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStat, SingleSample) {
  RunningStat s;
  s.push(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStat, KnownMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.push(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);        // population
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, StableUnderLargeOffsets) {
  RunningStat s;
  const double offset = 1e9;
  for (double v : {1.0, 2.0, 3.0}) s.push(offset + v);
  EXPECT_NEAR(s.mean(), offset + 2.0, 1e-3);
  EXPECT_NEAR(s.variance(), 2.0 / 3.0, 1e-3);
}

TEST(Ewma, FirstSampleInitialises) {
  Ewma e(0.5);
  EXPECT_FALSE(e.initialized());
  e.push(10.0);
  EXPECT_TRUE(e.initialized());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, ConvergesTowardConstant) {
  Ewma e(0.3);
  e.push(0.0);
  for (int i = 0; i < 50; ++i) e.push(100.0);
  EXPECT_NEAR(e.value(), 100.0, 1e-4);
}

TEST(Ewma, SmoothingWeight) {
  Ewma e(0.25);
  e.push(0.0);
  e.push(8.0);
  EXPECT_DOUBLE_EQ(e.value(), 2.0);  // 0.25*8
}

TEST(TimeSeries, BinsByWidth) {
  TimeSeries ts(100);
  ts.record(0);
  ts.record(99);
  ts.record(100);
  ts.record(250, 3.0);
  EXPECT_EQ(ts.bin_count(), 3u);
  EXPECT_DOUBLE_EQ(ts.bin(0), 2.0);
  EXPECT_DOUBLE_EQ(ts.bin(1), 1.0);
  EXPECT_DOUBLE_EQ(ts.bin(2), 3.0);
  EXPECT_DOUBLE_EQ(ts.total(), 6.0);
}

TEST(TimeSeries, OutOfRangeBinReadsZero) {
  TimeSeries ts(10);
  ts.record(5);
  EXPECT_DOUBLE_EQ(ts.bin(99), 0.0);
}

TEST(TimeSeries, NegativeTimeClampsToFirstBin) {
  TimeSeries ts(10);
  ts.record(-5);
  EXPECT_DOUBLE_EQ(ts.bin(0), 1.0);
}

TEST(TimeSeries, MeanOverWindow) {
  TimeSeries ts(10);
  for (int t = 0; t < 100; t += 10) ts.record(t, static_cast<double>(t / 10));
  // bins: 0..9
  EXPECT_DOUBLE_EQ(ts.mean_over(0, 10), 4.5);
  EXPECT_DOUBLE_EQ(ts.mean_over(5, 10), 7.0);
  EXPECT_DOUBLE_EQ(ts.mean_over(8, 4), 0.0);  // empty window
}

}  // namespace
}  // namespace dirq::sim
