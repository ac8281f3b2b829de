#ifndef CDI_STATS_DESCRIPTIVE_H_
#define CDI_STATS_DESCRIPTIVE_H_

#include <cstddef>
#include <vector>

#include "common/span.h"

namespace cdi::stats {

/// Descriptive statistics over numeric spans. Every function skips NaN
/// entries (the table layer encodes nulls as NaN), so callers can pass
/// Column::View() output directly — zero-copy for double columns — or any
/// std::vector<double> (which converts implicitly). Functions return NaN
/// when fewer valid values remain than the statistic needs.

double Mean(DoubleSpan x);

/// Unbiased (n-1) sample variance.
double Variance(DoubleSpan x);

double StdDev(DoubleSpan x);

double Min(DoubleSpan x);
double Max(DoubleSpan x);

double Median(DoubleSpan x);

/// Linear-interpolated quantile, q in [0, 1].
double Quantile(DoubleSpan x, double q);

/// Where Quantile reads q among n >= 1 sorted values: the lo-th and hi-th
/// smallest (0-based), blended as v[lo] * (1 - frac) + v[hi] * frac.
/// Every quantile in the project is this one formula, so its forms agree
/// bit for bit.
struct QuantilePosition {
  std::size_t lo;
  std::size_t hi;
  double frac;
};
QuantilePosition QuantileAt(std::size_t n, double q);

/// Quantile(x, q) bit for bit, given `order` = RankOrder(x), without a
/// sorted copy.
double QuantileFromOrder(DoubleSpan x, const std::vector<std::size_t>& order,
                         double q);

/// Weighted mean; entries with NaN value or weight are skipped.
double WeightedMean(DoubleSpan x,
                    DoubleSpan w);

/// Number of non-NaN entries.
std::size_t ValidCount(DoubleSpan x);

/// Pearson correlation over pairwise-complete entries.
double PearsonCorrelation(DoubleSpan x,
                          DoubleSpan y);

/// Spearman rank correlation over pairwise-complete entries
/// (average ranks for ties).
double SpearmanCorrelation(DoubleSpan x,
                           DoubleSpan y);

/// Ascending order of the non-NaN rows of `x`: the presort
/// SpearmanFromOrders reads ranks from, so a column ranked against many
/// others is sorted once.
std::vector<std::size_t> RankOrder(DoubleSpan x);

/// SpearmanCorrelation(x, y) bit for bit, given RankOrder(x) and
/// RankOrder(y). Average ranks depend only on the pairwise-complete value
/// set, so each side's ranks are read off its presorted order filtered to
/// the rows the other side has, in O(n) instead of a sort.
double SpearmanFromOrders(DoubleSpan x, const std::vector<std::size_t>& x_order,
                          DoubleSpan y, const std::vector<std::size_t>& y_order);

/// (x - mean) / stddev; NaN entries stay NaN. A constant vector maps to all
/// zeros.
std::vector<double> Standardize(DoubleSpan x);

/// Z-score of each entry against the vector's own mean/stddev (NaN for NaN).
std::vector<double> ZScores(DoubleSpan x);

}  // namespace cdi::stats

#endif  // CDI_STATS_DESCRIPTIVE_H_
