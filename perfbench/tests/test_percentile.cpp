#include "percentile.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using perfbench::describe;
using perfbench::percentile;

std::vector<double> iota_samples(int n) {
  std::vector<double> v;
  // Reverse order: the helper must not assume sorted input.
  for (int i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRankOnHundredSamples) {
  const auto p50 = percentile(iota_samples(100), 50);
  EXPECT_EQ(p50.rank, 50u);
  EXPECT_EQ(p50.beyond, 50u);
  EXPECT_DOUBLE_EQ(p50.value, 50.0);
  EXPECT_TRUE(p50.reported);

  const auto p90 = percentile(iota_samples(100), 90);
  EXPECT_EQ(p90.rank, 90u);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_DOUBLE_EQ(p90.value, 90.0);
  EXPECT_TRUE(p90.reported);
}

TEST(Percentile, RankRoundsUp) {
  // ceil(0.9 * 101) = 91: the 91st smallest value.
  const auto p = percentile(iota_samples(101), 90);
  EXPECT_EQ(p.rank, 91u);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_DOUBLE_EQ(p.value, 91.0);
}

TEST(Percentile, OmittedWithFewerThanTenBeyond) {
  const auto p90 = percentile(iota_samples(99), 90);
  EXPECT_EQ(p90.rank, 90u);
  EXPECT_EQ(p90.beyond, 9u);
  EXPECT_FALSE(p90.reported);
  EXPECT_DOUBLE_EQ(p90.value, 90.0);  // still computed, just not reported

  const auto p50 = percentile(iota_samples(19), 50);
  EXPECT_EQ(p50.beyond, 9u);
  EXPECT_FALSE(p50.reported);
  EXPECT_TRUE(percentile(iota_samples(20), 50).reported);
}

TEST(Percentile, EmptyAndSingleSample) {
  const auto empty = percentile({}, 50);
  EXPECT_EQ(empty.n, 0u);
  EXPECT_EQ(empty.rank, 0u);
  EXPECT_FALSE(empty.reported);

  const auto one = percentile({7.5}, 99);
  EXPECT_EQ(one.rank, 1u);
  EXPECT_EQ(one.beyond, 0u);
  EXPECT_DOUBLE_EQ(one.value, 7.5);
  EXPECT_FALSE(one.reported);
}

TEST(Percentile, HundredthIsTheMaximum) {
  const auto p = percentile(iota_samples(30), 100);
  EXPECT_EQ(p.rank, 30u);
  EXPECT_DOUBLE_EQ(p.value, 30.0);
  EXPECT_FALSE(p.reported);
}

TEST(Percentile, DescribeStatesCountAndBeyond) {
  EXPECT_EQ(describe(percentile(iota_samples(100), 90), "ms"),
            "p90=90 ms (n=100, 10 beyond)");
  EXPECT_EQ(describe(percentile(iota_samples(40), 90), "ms"),
            "p90 omitted (n=40, 4 beyond < 10)");
}

}  // namespace
