#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace dav {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(3);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 1000; ++i) ++seen[rng.uniform_index(10)];
  for (int count : seen) EXPECT_GT(count, 50);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  const int n = 100000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(5);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(1234);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1() == c2());
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(77);
  Rng b(77);
  Rng ca = a.split(5);
  Rng cb = b.split(5);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ca(), cb());
}

TEST(Rng, StateRoundTripResumesMidStream) {
  // set_state must land EXACTLY where state() was taken: a checkpointed run
  // resumes every RNG stream mid-sequence, so the continuation has to match
  // the uninterrupted draw-for-draw (ints, doubles, and normals, which keep
  // no cached spare in this generator).
  Rng rng(2022);
  for (int i = 0; i < 37; ++i) rng();
  const std::array<std::uint64_t, 4> snap = rng.state();
  std::vector<std::uint64_t> expected_ints;
  std::vector<double> expected_doubles;
  for (int i = 0; i < 16; ++i) expected_ints.push_back(rng());
  for (int i = 0; i < 16; ++i) expected_doubles.push_back(rng.uniform());
  const double expected_normal = rng.normal();

  Rng resumed(999);  // different seed: state transfer must fully overwrite
  resumed.set_state(snap);
  EXPECT_EQ(resumed.state(), snap);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(resumed(), expected_ints[i]);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(resumed.uniform(), expected_doubles[i]);
  }
  EXPECT_EQ(resumed.normal(), expected_normal);
}

TEST(RngJump, EqualsThatManyDraws) {
  for (const std::uint64_t d : {0, 1, 63, 64, 1727, 1728, 6912}) {
    const RngJump jump(d);
    for (const std::uint64_t seed : {2022, 7}) {
      Rng drawn(seed);
      Rng jumped(seed);
      for (std::uint64_t i = 0; i < d; ++i) drawn();
      jump.apply(jumped);
      EXPECT_EQ(jumped.state(), drawn.state()) << "d " << d << " seed " << seed;
      // The jumped stream continues as the drawn one does.
      EXPECT_EQ(jumped(), drawn()) << "d " << d << " seed " << seed;
    }
  }
}

TEST(Splitmix64, AdvancesState) {
  std::uint64_t s = 0;
  const std::uint64_t first = splitmix64(s);
  const std::uint64_t second = splitmix64(s);
  EXPECT_NE(first, second);
  EXPECT_NE(s, 0u);
}

}  // namespace
}  // namespace dav
