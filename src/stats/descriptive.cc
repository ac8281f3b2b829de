#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace cdi::stats {

namespace {

const double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<double> ValidValues(cdi::DoubleSpan x) {
  std::vector<double> out;
  out.reserve(x.size());
  for (double v : x) {
    if (!std::isnan(v)) out.push_back(v);
  }
  return out;
}

}  // namespace

std::size_t ValidCount(DoubleSpan x) {
  std::size_t n = 0;
  for (double v : x) n += std::isnan(v) ? 0 : 1;
  return n;
}

double Mean(DoubleSpan x) {
  double s = 0;
  std::size_t n = 0;
  for (double v : x) {
    if (std::isnan(v)) continue;
    s += v;
    ++n;
  }
  return n == 0 ? kNaN : s / static_cast<double>(n);
}

double Variance(DoubleSpan x) {
  const double m = Mean(x);
  if (std::isnan(m)) return kNaN;
  double ss = 0;
  std::size_t n = 0;
  for (double v : x) {
    if (std::isnan(v)) continue;
    ss += (v - m) * (v - m);
    ++n;
  }
  return n < 2 ? kNaN : ss / static_cast<double>(n - 1);
}

double StdDev(DoubleSpan x) {
  const double v = Variance(x);
  return std::isnan(v) ? kNaN : std::sqrt(v);
}

double Min(DoubleSpan x) {
  auto v = ValidValues(x);
  return v.empty() ? kNaN : *std::min_element(v.begin(), v.end());
}

double Max(DoubleSpan x) {
  auto v = ValidValues(x);
  return v.empty() ? kNaN : *std::max_element(v.begin(), v.end());
}

double Median(DoubleSpan x) { return Quantile(x, 0.5); }

double Quantile(DoubleSpan x, double q) {
  auto v = ValidValues(x);
  if (v.empty()) return kNaN;
  std::sort(v.begin(), v.end());
  const QuantilePosition p = QuantileAt(v.size(), q);
  return v[p.lo] * (1.0 - p.frac) + v[p.hi] * p.frac;
}

QuantilePosition QuantileAt(std::size_t n, double q) {
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
  return {lo, hi, pos - static_cast<double>(lo)};
}

double QuantileFromOrder(DoubleSpan x, const std::vector<std::size_t>& order,
                         double q) {
  if (order.empty()) return kNaN;
  const QuantilePosition p = QuantileAt(order.size(), q);
  return x[order[p.lo]] * (1.0 - p.frac) + x[order[p.hi]] * p.frac;
}

double WeightedMean(DoubleSpan x,
                    DoubleSpan w) {
  if (x.size() != w.size()) return kNaN;
  double num = 0, den = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i]) || std::isnan(w[i])) continue;
    num += w[i] * x[i];
    den += w[i];
  }
  return den == 0 ? kNaN : num / den;
}

double PearsonCorrelation(DoubleSpan x,
                          DoubleSpan y) {
  if (x.size() != y.size()) return kNaN;
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i]) || std::isnan(y[i])) continue;
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    syy += y[i] * y[i];
    sxy += x[i] * y[i];
    ++n;
  }
  if (n < 2) return kNaN;
  const double nn = static_cast<double>(n);
  const double cov = sxy - sx * sy / nn;
  const double vx = sxx - sx * sx / nn;
  const double vy = syy - sy * sy / nn;
  if (vx <= 0 || vy <= 0) return kNaN;
  return std::clamp(cov / std::sqrt(vx * vy), -1.0, 1.0);
}

namespace {

std::vector<double> AverageRanks(const std::vector<double>& v) {
  const std::size_t n = v.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  std::vector<double> ranks(n);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && v[order[j + 1]] == v[order[i]]) ++j;
    const double avg = 0.5 * (static_cast<double>(i) + static_cast<double>(j)) + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

}  // namespace

double SpearmanCorrelation(DoubleSpan x,
                           DoubleSpan y) {
  if (x.size() != y.size()) return kNaN;
  std::vector<double> xv, yv;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i]) || std::isnan(y[i])) continue;
    xv.push_back(x[i]);
    yv.push_back(y[i]);
  }
  if (xv.size() < 2) return kNaN;
  return PearsonCorrelation(AverageRanks(xv), AverageRanks(yv));
}

std::vector<std::size_t> RankOrder(DoubleSpan x) {
  std::vector<std::size_t> order;
  order.reserve(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!std::isnan(x[i])) order.push_back(i);
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return x[a] < x[b]; });
  return order;
}

namespace {

/// AverageRanks over the rows of `order` where `other` is not NaN, written
/// to `ranks` at each such row.
void AverageRanksFromOrder(DoubleSpan v, const std::vector<std::size_t>& order,
                           DoubleSpan other, std::vector<double>* ranks) {
  std::vector<std::size_t> kept;
  kept.reserve(order.size());
  for (std::size_t r : order) {
    if (!std::isnan(other[r])) kept.push_back(r);
  }
  const std::size_t n = kept.size();
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && v[kept[j + 1]] == v[kept[i]]) ++j;
    const double avg = 0.5 * (static_cast<double>(i) + static_cast<double>(j)) + 1.0;
    for (std::size_t k = i; k <= j; ++k) (*ranks)[kept[k]] = avg;
    i = j + 1;
  }
}

}  // namespace

double SpearmanFromOrders(DoubleSpan x, const std::vector<std::size_t>& x_order,
                          DoubleSpan y, const std::vector<std::size_t>& y_order) {
  if (x.size() != y.size()) return kNaN;
  // NaN-filled outside the pairwise-complete rows, so the Pearson below
  // sums exactly the complete rows, in row order, as SpearmanCorrelation's
  // compacted vectors do.
  std::vector<double> rx(x.size(), kNaN);
  std::vector<double> ry(y.size(), kNaN);
  AverageRanksFromOrder(x, x_order, y, &rx);
  AverageRanksFromOrder(y, y_order, x, &ry);
  return PearsonCorrelation(rx, ry);
}

std::vector<double> Standardize(DoubleSpan x) {
  const double m = Mean(x);
  const double s = StdDev(x);
  std::vector<double> out(x.size(), kNaN);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i])) continue;
    out[i] = (std::isnan(s) || s <= 0) ? 0.0 : (x[i] - m) / s;
  }
  return out;
}

std::vector<double> ZScores(DoubleSpan x) {
  return Standardize(x);
}

}  // namespace cdi::stats
