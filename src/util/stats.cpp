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

void RunningStat::add(double x) {
  ++count_;
  const double delta = x - welford_mean_;
  welford_mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - welford_mean_);
  if (count_ == 1) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  // Kahan step, identical to util::sum's loop body.
  const double y = x - comp_;
  const double t = total_ + y;
  comp_ = (t - total_) - y;
  total_ = t;
}

double RunningStat::mean() const {
  if (count_ == 0) return 0.0;
  return total_ / static_cast<double>(count_);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

P2Quantile::P2Quantile(double q) : q_(q) {
  EASYC_REQUIRE(q >= 0.0 && q <= 1.0, "P2Quantile q must be in [0,1]");
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    // Warm-up: keep the observations themselves, sorted, so the
    // estimate stays exact until the markers exist.
    size_t i = count_;
    while (i > 0 && heights_[i - 1] > x) {
      heights_[i] = heights_[i - 1];
      --i;
    }
    heights_[i] = x;
    ++count_;
    if (count_ == 5) {
      for (size_t m = 0; m < 5; ++m) {
        positions_[m] = static_cast<double>(m + 1);
      }
      desired_ = {1.0, 1.0 + 2.0 * q_, 1.0 + 4.0 * q_, 3.0 + 2.0 * q_, 5.0};
      increment_ = {0.0, q_ / 2.0, q_, (1.0 + q_) / 2.0, 1.0};
    }
    return;
  }

  // Locate the cell containing x, clamping the extreme markers.
  size_t k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }
  for (size_t m = k + 1; m < 5; ++m) positions_[m] += 1.0;
  for (size_t m = 0; m < 5; ++m) desired_[m] += increment_[m];
  ++count_;

  // Nudge the three interior markers toward their desired positions.
  for (size_t m = 1; m <= 3; ++m) {
    const double d = desired_[m] - positions_[m];
    if ((d >= 1.0 && positions_[m + 1] - positions_[m] > 1.0) ||
        (d <= -1.0 && positions_[m - 1] - positions_[m] < -1.0)) {
      const double sign = d >= 0.0 ? 1.0 : -1.0;
      // Piecewise-parabolic (P²) height prediction.
      const double np = positions_[m + 1];
      const double nc = positions_[m];
      const double nm = positions_[m - 1];
      const double hp = heights_[m + 1];
      const double hc = heights_[m];
      const double hm = heights_[m - 1];
      double candidate =
          hc + sign / (np - nm) *
                   ((nc - nm + sign) * (hp - hc) / (np - nc) +
                    (np - nc - sign) * (hc - hm) / (nc - nm));
      if (candidate <= hm || candidate >= hp) {
        // Parabola left the bracket: fall back to linear interpolation
        // toward the neighbour in the move direction.
        const size_t nb = static_cast<size_t>(static_cast<long long>(m) +
                                              static_cast<long long>(sign));
        candidate = hc + sign * (heights_[nb] - hc) /
                             (positions_[nb] - nc) * 1.0;
      }
      heights_[m] = candidate;
      positions_[m] += sign;
    }
  }
}

double P2Quantile::value() const {
  if (count_ == 0) return 0.0;
  if (count_ <= 5) {
    // Exact over the stored warm-up sample (same interpolation as
    // percentile_sorted; heights_[0..count_) is sorted).
    return percentile_sorted(
        std::span<const double>(heights_.data(), count_), q_);
  }
  return heights_[2];
}

StreamingSummary::StreamingSummary()
    : p05_(0.05), median_(0.5), p95_(0.95) {}

void StreamingSummary::add(double x) {
  stat_.add(x);
  p05_.add(x);
  median_.add(x);
  p95_.add(x);
}

Summary StreamingSummary::summary() const {
  Summary s;
  s.count = stat_.count();
  if (s.count == 0) return s;
  s.total = stat_.total();
  s.mean = stat_.mean();
  s.stddev = stat_.stddev();
  s.min = stat_.min();
  s.max = stat_.max();
  s.median = median_.value();
  s.p05 = p05_.value();
  s.p95 = p95_.value();
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
