#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace easyc::util {

double sum(std::span<const double> xs) {
  // Kahan summation: aggregate totals span five orders of magnitude
  // (tiny DGX pods vs exascale systems), so naive accumulation loses
  // low-order mass.
  double s = 0.0;
  double c = 0.0;
  for (double x : xs) {
    const double y = x - c;
    const double t = s + y;
    c = (t - s) - y;
    s = t;
  }
  return s;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return sum(xs) / static_cast<double>(xs.size());
}

double sample_stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double percentile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  EASYC_REQUIRE(q >= 0.0 && q <= 1.0, "percentile q must be in [0,1]");
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double percentile(std::span<const double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, q);
}

double median(std::span<const double> xs) { return percentile(xs, 0.5); }

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.total = sum(xs);
  s.mean = s.total / static_cast<double>(xs.size());
  s.stddev = sample_stddev(xs);
  // One sorted copy serves every order statistic. The sweep reduction
  // summarizes thousands of cells three times per report; the earlier
  // per-percentile copy-and-sort (plus min/max scans) made that the
  // only superlinear step of the reduction. Same interpolation, same
  // results — only the redundant sorts are gone.
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.median = percentile_sorted(sorted, 0.5);
  s.p05 = percentile_sorted(sorted, 0.05);
  s.p95 = percentile_sorted(sorted, 0.95);
  return s;
}

LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys) {
  EASYC_REQUIRE(xs.size() == ys.size(), "linear_fit needs equal lengths");
  EASYC_REQUIRE(xs.size() >= 2, "linear_fit needs at least 2 points");
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  EASYC_REQUIRE(sxx > 0.0, "linear_fit needs non-degenerate x values");
  LinearFit f;
  f.slope = sxy / sxx;
  f.intercept = my - f.slope * mx;
  f.r2 = (syy == 0.0) ? 1.0 : (sxy * sxy) / (sxx * syy);
  return f;
}

double cagr(std::span<const double> series) {
  EASYC_REQUIRE(series.size() >= 2, "cagr needs at least 2 points");
  EASYC_REQUIRE(series.front() > 0.0, "cagr needs positive initial value");
  const double ratio = series.back() / series.front();
  const double years = static_cast<double>(series.size() - 1);
  return std::pow(ratio, 1.0 / years) - 1.0;
}

std::vector<size_t> integer_histogram(std::span<const int> values, int nbins) {
  EASYC_REQUIRE(nbins > 0, "histogram needs at least one bin");
  std::vector<size_t> bins(static_cast<size_t>(nbins), 0);
  for (int v : values) {
    int b = std::clamp(v, 0, nbins - 1);
    ++bins[static_cast<size_t>(b)];
  }
  return bins;
}

double pct_change(double a, double b) {
  if (a == 0.0) return 0.0;
  return (b - a) / a * 100.0;
}

}  // namespace easyc::util
