// Tests for src/common utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/cacheline.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timing.hpp"

namespace {

TEST(Cacheline, AlignUp) {
  EXPECT_EQ(bgq::align_up(0, 64), 0u);
  EXPECT_EQ(bgq::align_up(1, 64), 64u);
  EXPECT_EQ(bgq::align_up(64, 64), 64u);
  EXPECT_EQ(bgq::align_up(65, 64), 128u);
}

TEST(Cacheline, Pow2Helpers) {
  EXPECT_TRUE(bgq::is_pow2(1));
  EXPECT_TRUE(bgq::is_pow2(64));
  EXPECT_FALSE(bgq::is_pow2(0));
  EXPECT_FALSE(bgq::is_pow2(12));
  EXPECT_EQ(bgq::next_pow2(1), 1u);
  EXPECT_EQ(bgq::next_pow2(3), 4u);
  EXPECT_EQ(bgq::next_pow2(64), 64u);
  EXPECT_EQ(bgq::next_pow2(65), 128u);
}

TEST(Cacheline, PaddedIsolatesLines) {
  bgq::Padded<int> a, b;
  EXPECT_GE(sizeof(a), bgq::kL2Line);
  *a = 1;
  *b = 2;
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(*b, 2);
}

TEST(Rng, DeterministicForSameSeed) {
  bgq::Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  bgq::Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  bgq::Xoshiro256 r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, BelowCoversFullRangeWithoutBias) {
  bgq::Xoshiro256 r(7);
  std::set<std::uint64_t> seen;
  int counts[7] = {};
  for (int i = 0; i < 70000; ++i) {
    const auto v = r.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
    ++counts[v];
  }
  EXPECT_EQ(seen.size(), 7u);
  for (int c : counts) {
    EXPECT_GT(c, 8000);
    EXPECT_LT(c, 12000);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  bgq::Xoshiro256 r(11);
  double sum = 0, sq = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double g = r.gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sq / kN, 1.0, 0.03);
}

TEST(Timing, TimerMeasuresForwardTime) {
  bgq::Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i);
  EXPECT_GT(t.elapsed_ns(), 0u);
  EXPECT_GE(t.elapsed_us(), 0.0);
  (void)sink;
}

TEST(Table, PrintsAlignedRows) {
  bgq::TextTable tbl({"nodes", "p2p", "m2m"});
  tbl.row(64, 3030, 1826);
  tbl.row(1024, 1560, 583);
  std::ostringstream ss;
  tbl.print(ss);
  const std::string out = ss.str();
  EXPECT_NE(out.find("nodes"), std::string::npos);
  EXPECT_NE(out.find("3030"), std::string::npos);
  EXPECT_NE(out.find("1826"), std::string::npos);
  EXPECT_NE(out.find("583"), std::string::npos);
}

}  // namespace
