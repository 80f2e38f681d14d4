#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace easyc::util {
namespace {

TEST(Sum, EmptyAndBasic) {
  EXPECT_DOUBLE_EQ(sum({}), 0.0);
  std::vector<double> xs = {1, 2, 3.5};
  EXPECT_DOUBLE_EQ(sum(xs), 6.5);
}

TEST(Sum, KahanHandlesMagnitudeSpread) {
  // 1e16 + 1.0 repeated: naive summation drops the small terms.
  std::vector<double> xs;
  xs.push_back(1e16);
  for (int i = 0; i < 1000; ++i) xs.push_back(1.0);
  xs.push_back(-1e16);
  EXPECT_DOUBLE_EQ(sum(xs), 1000.0);
}

TEST(Mean, Basic) {
  std::vector<double> xs = {2, 4, 6};
  EXPECT_DOUBLE_EQ(mean(xs), 4.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stddev, SampleFormula) {
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(sample_stddev(xs), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(sample_stddev(std::vector<double>{1.0}), 0.0);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(median(xs), 25.0);
  // Order independence.
  std::vector<double> shuffled = {40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(percentile(shuffled, 0.5), 25.0);
}

TEST(Summary, AllFieldsConsistent) {
  std::vector<double> xs = {1, 2, 3, 4, 100};
  auto s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.total, 110.0);
  EXPECT_DOUBLE_EQ(s.mean, 22.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_LE(s.p05, s.median);
  EXPECT_LE(s.median, s.p95);
}

TEST(PercentileSorted, MatchesPercentileOnSortedInput) {
  // summarize() now reads every order statistic from one sorted copy;
  // percentile_sorted over that copy must agree exactly with the
  // copy-and-sort percentile() it replaced.
  std::vector<double> xs = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(percentile_sorted(sorted, q), percentile(xs, q)) << q;
  }
  EXPECT_DOUBLE_EQ(percentile_sorted({}, 0.5), 0.0);
}

TEST(Summary, SingleSortMatchesIndependentOrderStatistics) {
  // An unsorted, duplicate-heavy sample with a magnitude spread like
  // the sweep reductions: every summarize field must equal the
  // independently computed statistic, bit for bit.
  std::vector<double> xs;
  for (int i = 0; i < 257; ++i) {
    xs.push_back(((i * 7919) % 1000) * 1e3 + ((i * 104729) % 97) * 0.25);
  }
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, xs.size());
  EXPECT_EQ(s.min, *std::min_element(xs.begin(), xs.end()));
  EXPECT_EQ(s.max, *std::max_element(xs.begin(), xs.end()));
  EXPECT_EQ(s.median, percentile(xs, 0.5));
  EXPECT_EQ(s.p05, percentile(xs, 0.05));
  EXPECT_EQ(s.p95, percentile(xs, 0.95));
  EXPECT_EQ(s.total, sum(xs));
  EXPECT_EQ(s.stddev, sample_stddev(xs));
}

TEST(LinearFit, RecoversExactLine) {
  std::vector<double> xs = {0, 1, 2, 3};
  std::vector<double> ys = {5, 7, 9, 11};  // y = 5 + 2x
  auto f = linear_fit(xs, ys);
  EXPECT_NEAR(f.intercept, 5.0, 1e-12);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(LinearFit, R2ForNoisyData) {
  std::vector<double> xs = {0, 1, 2, 3, 4, 5};
  std::vector<double> ys = {0.1, 0.9, 2.2, 2.8, 4.1, 4.9};
  auto f = linear_fit(xs, ys);
  EXPECT_GT(f.r2, 0.98);
  EXPECT_NEAR(f.slope, 1.0, 0.1);
}

TEST(Cagr, MatchesClosedForm) {
  std::vector<double> series = {100, 0, 0, 0, 146.41};  // 10%/yr over 4
  EXPECT_NEAR(cagr(series), 0.10, 1e-10);
}

TEST(IntegerHistogram, ClampsAndCounts) {
  std::vector<int> v = {0, 1, 1, 2, 5, -3, 99};
  auto h = integer_histogram(v, 4);
  ASSERT_EQ(h.size(), 4u);
  EXPECT_EQ(h[0], 2u);  // 0 and clamped -3
  EXPECT_EQ(h[1], 2u);
  EXPECT_EQ(h[2], 1u);
  EXPECT_EQ(h[3], 2u);  // 5 and 99 clamp into top bin
}

TEST(PctChange, Basic) {
  EXPECT_DOUBLE_EQ(pct_change(100, 110), 10.0);
  EXPECT_DOUBLE_EQ(pct_change(100, 90), -10.0);
  EXPECT_DOUBLE_EQ(pct_change(0, 5), 0.0);
}

// Property: percentile is monotone in q.
class PercentileMonotone : public ::testing::TestWithParam<double> {};

TEST_P(PercentileMonotone, NonDecreasingInQ) {
  std::vector<double> xs = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
  const double q = GetParam();
  EXPECT_LE(percentile(xs, q), percentile(xs, std::min(1.0, q + 0.1)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PercentileMonotone,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9));

}  // namespace
}  // namespace easyc::util
