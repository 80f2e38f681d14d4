// Descriptive statistics and small numeric helpers used by the
// coverage/interpolation analysis, the report layer, and the streaming
// sweep reductions (RunningStat / P2Quantile / StreamingSummary).
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace easyc::util {

/// Summary of a sample. Computed in one pass (Welford) plus a sort for
/// the order statistics.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  // sample stddev (n-1); 0 when count < 2
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p05 = 0.0;
  double p95 = 0.0;
  double total = 0.0;
};

double mean(std::span<const double> xs);
double sum(std::span<const double> xs);
double sample_stddev(std::span<const double> xs);
double median(std::span<const double> xs);

/// Linear-interpolated percentile, q in [0,1]. Empty input -> 0.
double percentile(std::span<const double> xs, double q);

/// percentile() over a sample that is already sorted ascending — no
/// copy, no re-sort. The building block summarize() reads all its order
/// statistics from; callers holding a sorted sample (reductions over
/// thousands of sweep cells) should prefer it.
double percentile_sorted(std::span<const double> sorted, double q);

Summary summarize(std::span<const double> xs);

/// Single-pass running moments: Welford mean/variance plus exact
/// min/max and a Kahan-compensated total, in O(1) memory. Fed the same
/// sequence as summarize(), count/min/max/total (and mean derived as
/// total/count) match the store-all computation bit for bit; stddev
/// agrees to rounding (Welford's M2 vs the two-pass formula).
class RunningStat {
 public:
  void add(double x);

  size_t count() const { return count_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  /// Kahan-compensated sum, identical to util::sum over the same feed
  /// order.
  double total() const { return total_; }
  /// total()/count(): matches summarize()'s mean bit for bit.
  double mean() const;
  /// Sample stddev (n-1); 0 when count < 2.
  double stddev() const;
  double variance() const;

 private:
  size_t count_ = 0;
  double welford_mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double total_ = 0.0;
  double comp_ = 0.0;  // Kahan compensation for total_
};

/// P² (Jain–Chlamtac 1985) streaming quantile estimator: one quantile
/// tracked with five markers in O(1) memory, no stored sample. Exact
/// (matches percentile()) for the first five observations; beyond
/// that, a piecewise-parabolic approximation whose error shrinks with
/// sample size — the sweep reduction pins its tolerance in tests.
/// Deterministic: the estimate is a pure function of the observation
/// sequence, so a fixed feed order gives bit-stable results.
class P2Quantile {
 public:
  /// q in [0,1]; 0.5 tracks the median.
  explicit P2Quantile(double q);

  void add(double x);
  /// Current estimate; 0 before any observation.
  double value() const;
  size_t count() const { return count_; }

 private:
  double q_;
  size_t count_ = 0;
  std::array<double, 5> heights_{};   // marker heights (sorted)
  std::array<double, 5> positions_{}; // actual marker positions (1-based)
  std::array<double, 5> desired_{};   // desired marker positions
  std::array<double, 5> increment_{}; // desired-position increments
};

/// Streaming replacement for summarize(): one RunningStat plus P²
/// estimators for p05/median/p95, filled from a single pass in O(1)
/// memory. count/mean/min/max/total in the produced Summary are
/// bit-identical to summarize() over the same feed order; stddev and
/// the order statistics are approximations with test-pinned tolerance.
/// There is deliberately no merge: a P² estimator is a function of its
/// whole feed order, so a sharded sweep replays every cell into one
/// summary (analysis::SweepFold) instead of combining partial states.
class StreamingSummary {
 public:
  StreamingSummary();

  void add(double x);
  Summary summary() const;

 private:
  RunningStat stat_;
  P2Quantile p05_;
  P2Quantile median_;
  P2Quantile p95_;
};

/// Least-squares fit y = a + b*x. Requires xs.size() == ys.size() >= 2
/// and non-degenerate xs.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys);

/// Compound annual growth rate between first and last of a series with
/// `years` spacing 1: (last/first)^(1/(n-1)) - 1.
double cagr(std::span<const double> series);

/// Histogram with fixed integer-labelled bins [0, nbins). Values outside
/// are clamped into the edge bins.
std::vector<size_t> integer_histogram(std::span<const int> values, int nbins);

/// Relative difference (b-a)/a in percent; 0 if a == 0.
double pct_change(double a, double b);

}  // namespace easyc::util
