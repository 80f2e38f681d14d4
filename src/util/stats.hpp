// Descriptive statistics and small numeric helpers used by the
// coverage/interpolation analysis, the report layer, and the sweep
// reduction (store every cell's totals, then summarize()).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace easyc::util {

/// Summary of a sample: a Kahan-summed total, a two-pass stddev, and
/// one sort for the order statistics.
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
