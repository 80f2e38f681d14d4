#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
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

// --- streaming moments (Welford + Kahan) ----------------------------

// The duplicate-heavy, magnitude-spread sample the Summary tests use —
// representative of sweep reduction inputs.
std::vector<double> sweep_like_sample(size_t n) {
  std::vector<double> xs;
  xs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    xs.push_back(((i * 7919) % 1000) * 1e3 + ((i * 104729) % 97) * 0.25);
  }
  return xs;
}

TEST(RunningStat, EmptyMatchesEmptySummary) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.total(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStat, SequentialFeedBitMatchesTheBatchStatistics) {
  // The streaming sweep reduction must agree with the store-all one on
  // everything that isn't an order statistic: count, min, max, and the
  // Kahan-compensated total (and therefore the mean) are exact, bit
  // for bit, because RunningStat runs the same compensated loop body
  // util::sum does.
  const auto xs = sweep_like_sample(257);
  RunningStat s;
  for (const double x : xs) s.add(x);
  const Summary batch = summarize(xs);
  EXPECT_EQ(s.count(), batch.count);
  EXPECT_EQ(s.min(), batch.min);
  EXPECT_EQ(s.max(), batch.max);
  EXPECT_EQ(s.total(), batch.total);
  EXPECT_EQ(s.mean(), batch.mean);
  // Welford variance is a different (more stable) recurrence than the
  // two-pass formula; near-equal, not bit-equal.
  EXPECT_NEAR(s.stddev(), batch.stddev, 1e-9 * batch.stddev);
  EXPECT_DOUBLE_EQ(RunningStat().stddev(), 0.0);
}

TEST(RunningStat, SingleObservation) {
  RunningStat s;
  s.add(42.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.min(), 42.5);
  EXPECT_DOUBLE_EQ(s.max(), 42.5);
  EXPECT_DOUBLE_EQ(s.mean(), 42.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);  // sample stddev undefined at n=1
}

// --- streaming quantiles (P²) ---------------------------------------

TEST(P2Quantile, ExactUntilFiveObservations) {
  // The warm-up buffer defers to percentile_sorted, so small streams
  // are exact — the sweep's base-plus-endpoints prefix never sees an
  // approximation.
  P2Quantile q(0.5);
  EXPECT_DOUBLE_EQ(q.value(), 0.0);  // empty
  std::vector<double> seen;
  for (const double x : {9.0, 1.0, 5.0, 3.0, 7.0}) {
    q.add(x);
    seen.push_back(x);
    EXPECT_DOUBLE_EQ(q.value(), percentile(seen, 0.5)) << seen.size();
  }
}

TEST(P2Quantile, TracksExactQuantilesWithinTolerance) {
  // A deterministic LCG sample (no library RNG: the test must be
  // reproducible byte-for-byte). P² is an approximation; for a smooth
  // unimodal-ish distribution over [0, 1e4) the 5-marker estimate
  // stays within a few percent of the population spread.
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) /
           static_cast<double>(1ull << 53) * 1e4;
  };
  std::vector<double> xs;
  P2Quantile p05(0.05), p50(0.5), p95(0.95);
  for (int i = 0; i < 20000; ++i) {
    const double x = next();
    xs.push_back(x);
    p05.add(x);
    p50.add(x);
    p95.add(x);
  }
  const double spread = percentile(xs, 0.95) - percentile(xs, 0.05);
  EXPECT_NEAR(p05.value(), percentile(xs, 0.05), 0.02 * spread);
  EXPECT_NEAR(p50.value(), percentile(xs, 0.5), 0.02 * spread);
  EXPECT_NEAR(p95.value(), percentile(xs, 0.95), 0.02 * spread);
  // Markers never escape the observed range, and quantile order holds.
  EXPECT_GE(p05.value(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_LE(p95.value(), *std::max_element(xs.begin(), xs.end()));
  EXPECT_LE(p05.value(), p50.value());
  EXPECT_LE(p50.value(), p95.value());
}

TEST(P2Quantile, IsDeterministicForAFixedStream) {
  const auto xs = sweep_like_sample(1000);
  auto run = [&xs] {
    P2Quantile q(0.9);
    for (const double x : xs) q.add(x);
    return q.value();
  };
  EXPECT_EQ(run(), run());
}

TEST(StreamingSummary, FillsEverySummaryField) {
  const auto xs = sweep_like_sample(4096);
  StreamingSummary s;
  for (const double x : xs) s.add(x);
  const Summary stream = s.summary();
  const Summary batch = summarize(xs);
  // Exact fields are bit-equal...
  EXPECT_EQ(stream.count, batch.count);
  EXPECT_EQ(stream.min, batch.min);
  EXPECT_EQ(stream.max, batch.max);
  EXPECT_EQ(stream.total, batch.total);
  EXPECT_EQ(stream.mean, batch.mean);
  EXPECT_NEAR(stream.stddev, batch.stddev, 1e-9 * batch.stddev);
  // ...and the P² order statistics track the sorted ones.
  const double spread = batch.p95 - batch.p05;
  EXPECT_NEAR(stream.median, batch.median, 0.05 * spread);
  EXPECT_NEAR(stream.p05, batch.p05, 0.05 * spread);
  EXPECT_NEAR(stream.p95, batch.p95, 0.05 * spread);
}

TEST(StreamingSummary, EmptyMatchesEmptySummarize) {
  const Summary stream = StreamingSummary().summary();
  const Summary batch = summarize({});
  EXPECT_EQ(stream.count, batch.count);
  EXPECT_EQ(stream.total, batch.total);
  EXPECT_EQ(stream.mean, batch.mean);
  EXPECT_EQ(stream.median, batch.median);
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
