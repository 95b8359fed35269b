#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace prosim {
namespace {

TEST(Geomean, EmptyIsZero) { EXPECT_EQ(geomean({}), 0.0); }

TEST(Geomean, SingleValue) { EXPECT_DOUBLE_EQ(geomean({2.5}), 2.5); }

TEST(Geomean, KnownValue) {
  // geomean(2, 8) = 4
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Geomean, InvariantUnderReciprocalSymmetry) {
  // geomean(x, 1/x) == 1 — the property that makes it the right mean for
  // speedup ratios.
  EXPECT_NEAR(geomean({3.7, 1.0 / 3.7}), 1.0, 1e-12);
}

TEST(Mean, Basic) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_EQ(mean({}), 0.0);
}

TEST(Histogram, BinsValuesCorrectly) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.0);   // bin 0
  h.add(0.99);  // bin 0
  h.add(9.99);  // bin 9
  h.add(-1.0);  // underflow
  h.add(10.0);  // overflow (half-open upper bound)
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 100.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 25.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 75.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 100.0);
}

}  // namespace
}  // namespace prosim
