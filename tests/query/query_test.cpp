// Query model semantics: predicate matching, range-table overlap tests
// (the forwarding decision of §4.1), and describe() rendering.
#include "query/query.hpp"

#include <gtest/gtest.h>

#include "net/bbox.hpp"
#include "sim/types.hpp"

namespace dirq::query {
namespace {

TEST(RangeQuery, MatchesIsInclusiveOnBothBounds) {
  const RangeQuery q(1, kSensorTemperature, 22.0, 25.0, 0);
  EXPECT_TRUE(q.matches(22.0));
  EXPECT_TRUE(q.matches(25.0));
  EXPECT_TRUE(q.matches(23.5));
  EXPECT_FALSE(q.matches(21.999));
  EXPECT_FALSE(q.matches(25.001));
}

TEST(RangeQuery, DegenerateWindowMatchesNothing) {
  // An inverted window is an empty predicate: no reading satisfies it.
  // (overlaps() is deliberately not constrained here — the interval test
  // `lo <= max && hi >= min` has no meaning for lo > hi, and the workload
  // generator never emits inverted windows.)
  const RangeQuery q(1, kSensorTemperature, 25.0, 22.0, 0);  // lo > hi
  EXPECT_FALSE(q.matches(23.0));
  EXPECT_FALSE(q.matches(22.0));
  EXPECT_FALSE(q.matches(25.0));
}

TEST(RangeQuery, OverlapsStoredRange) {
  const RangeQuery q(1, kSensorTemperature, 22.0, 25.0, 0);
  EXPECT_TRUE(q.overlaps(20.0, 23.0));   // partial from below
  EXPECT_TRUE(q.overlaps(24.0, 30.0));   // partial from above
  EXPECT_TRUE(q.overlaps(23.0, 23.5));   // contained
  EXPECT_TRUE(q.overlaps(10.0, 40.0));   // containing
  EXPECT_TRUE(q.overlaps(25.0, 30.0));   // touching at hi
  EXPECT_TRUE(q.overlaps(10.0, 22.0));   // touching at lo
  EXPECT_FALSE(q.overlaps(10.0, 21.9));  // below
  EXPECT_FALSE(q.overlaps(25.1, 30.0));  // above
}

TEST(RangeQuery, PointQueryMatchesExactValueOnly) {
  const RangeQuery q(1, kSensorHumidity, 50.0, 50.0, 0);
  EXPECT_TRUE(q.matches(50.0));
  EXPECT_FALSE(q.matches(49.9));
  EXPECT_TRUE(q.overlaps(50.0, 60.0));
  EXPECT_FALSE(q.overlaps(50.1, 60.0));
}

TEST(RangeQuery, DescribeRendersTypeWindowAndEpoch) {
  const RangeQuery q(7, kSensorTemperature, 22.0, 25.0, 140);
  const std::string s = q.describe();
  EXPECT_NE(s.find("query#7"), std::string::npos) << s;
  EXPECT_NE(s.find("temperature"), std::string::npos) << s;
  EXPECT_NE(s.find("[22, 25]"), std::string::npos) << s;
  EXPECT_NE(s.find("@epoch 140"), std::string::npos) << s;
  EXPECT_EQ(s.find("within"), std::string::npos) << s;  // no region clause
}

TEST(RangeQuery, DescribeRendersRegionWhenPresent) {
  const RangeQuery q(3, kSensorLight, 0.0, 100.0, 20,
                     net::BBox{10.0, 20.0, 30.0, 40.0});
  const std::string s = q.describe();
  EXPECT_NE(s.find("light"), std::string::npos) << s;
  EXPECT_NE(s.find("within ["), std::string::npos) << s;
}

TEST(AttributePredicate, MatchesAndOverlapsMirrorRangeQuery) {
  const AttributePredicate p{kSensorSoilMoisture, 5.0, 10.0};
  EXPECT_TRUE(p.matches(5.0));
  EXPECT_TRUE(p.matches(10.0));
  EXPECT_FALSE(p.matches(10.5));
  EXPECT_TRUE(p.overlaps(9.0, 20.0));
  EXPECT_FALSE(p.overlaps(10.5, 20.0));
}

TEST(MultiQuery, RangeQueryConvertsToOnePredicate) {
  const RangeQuery q(4, kSensorHumidity, 30.0, 45.0, 80,
                     net::BBox{1.0, 2.0, 3.0, 4.0});
  const MultiQuery m = q;
  EXPECT_EQ(m.id, 4u);
  EXPECT_EQ(m.epoch, 80);
  ASSERT_EQ(m.predicates.size(), 1u);
  EXPECT_EQ(m.predicates[0].type, kSensorHumidity);
  EXPECT_EQ(m.predicates[0].lo, 30.0);
  EXPECT_EQ(m.predicates[0].hi, 45.0);
  ASSERT_TRUE(m.region.has_value());
  EXPECT_EQ(*m.region, *q.region);
}

TEST(MultiQuery, DescribeListsEveryConjunct) {
  MultiQuery m;
  m.id = 9;
  m.epoch = 60;
  m.predicates = {{kSensorTemperature, 22.0, 25.0},
                  {kSensorHumidity, 40.0, 60.0}};
  const std::string s = m.describe();
  EXPECT_NE(s.find("multiquery#9"), std::string::npos) << s;
  EXPECT_NE(s.find("temperature"), std::string::npos) << s;
  EXPECT_NE(s.find("humidity"), std::string::npos) << s;
  EXPECT_NE(s.find("@epoch 60"), std::string::npos) << s;
}

}  // namespace
}  // namespace dirq::query
