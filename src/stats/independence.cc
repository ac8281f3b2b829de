#include "stats/independence.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "stats/descriptive.h"
#include "stats/distributions.h"

namespace cdi::stats {

namespace {

/// A buffer of `n` elements that lives on the stack when `n <= N` and on
/// the heap otherwise, so the common small tables never allocate.
template <typename T, std::size_t N>
class SmallBuffer {
 public:
  SmallBuffer(std::size_t n, T fill) {
    if (n > N) {
      heap_.assign(n, fill);
      data_ = heap_.data();
    } else {
      std::fill_n(inline_, n, fill);
      data_ = inline_;
    }
  }
  SmallBuffer(const SmallBuffer&) = delete;
  SmallBuffer& operator=(const SmallBuffer&) = delete;

  T& operator[](std::size_t i) { return data_[i]; }

 private:
  T inline_[N];
  std::vector<T> heap_;
  T* data_;
};

/// Codes up to this many (and tables up to its square) stay on the stack.
constexpr std::size_t kInlineCodes = 16;
/// Largest code a contingency table accepts; the dense-id maps are
/// indexed by code.
constexpr int kMaxCode = (1 << 20) - 1;

/// Chi-square statistic of one contingency table.
struct CrossTab {
  /// Rows with both codes present.
  std::size_t rows = 0;
  /// Distinct codes of x and of y among those rows.
  std::size_t kx = 0, ky = 0;
  double statistic = 0.0;
  double dof = 0.0;
  double cramers_v = 0.0;
};

/// Cross-tabulates x against y, skipping rows with a missing code, and,
/// when both sides have at least two distinct codes, computes the table's
/// chi-square statistic, degrees of freedom and Cramer's V. Codes get
/// dense ids in first-appearance order and the statistic is summed over
/// (x id, y id) in that order, so the floating-point sum is fixed by the
/// data alone.
Result<CrossTab> CrossTabulate(const std::vector<int>& x,
                               const std::vector<int>& y) {
  const std::size_t n = x.size();
  CrossTab tab;
  int max_x = -1, max_y = -1;
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] < 0 || y[i] < 0) continue;
    max_x = std::max(max_x, x[i]);
    max_y = std::max(max_y, y[i]);
    ++tab.rows;
  }
  if (max_x > kMaxCode || max_y > kMaxCode) {
    return Status::InvalidArgument("chi-square codes must be below " +
                                   std::to_string(kMaxCode + 1));
  }
  SmallBuffer<int, kInlineCodes> id_x(static_cast<std::size_t>(max_x + 1), -1);
  SmallBuffer<int, kInlineCodes> id_y(static_cast<std::size_t>(max_y + 1), -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] < 0 || y[i] < 0) continue;
    if (id_x[x[i]] < 0) id_x[x[i]] = static_cast<int>(tab.kx++);
    if (id_y[y[i]] < 0) id_y[y[i]] = static_cast<int>(tab.ky++);
  }
  if (tab.kx < 2 || tab.ky < 2) return tab;

  const std::size_t kx = tab.kx, ky = tab.ky;
  SmallBuffer<std::size_t, kInlineCodes * kInlineCodes> counts(kx * ky, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] < 0 || y[i] < 0) continue;
    ++counts[static_cast<std::size_t>(id_x[x[i]]) * ky +
             static_cast<std::size_t>(id_y[y[i]])];
  }
  // Margins are integer counts, exact in any order. Every id occurs, so
  // every margin is positive.
  SmallBuffer<double, kInlineCodes> row_sum(kx, 0.0);
  SmallBuffer<double, kInlineCodes> col_sum(ky, 0.0);
  for (std::size_t i = 0; i < kx; ++i) {
    for (std::size_t j = 0; j < ky; ++j) {
      const double c = static_cast<double>(counts[i * ky + j]);
      row_sum[i] += c;
      col_sum[j] += c;
    }
  }
  const double total = static_cast<double>(tab.rows);
  for (std::size_t i = 0; i < kx; ++i) {
    for (std::size_t j = 0; j < ky; ++j) {
      const double expected = row_sum[i] * col_sum[j] / total;
      const double d = static_cast<double>(counts[i * ky + j]) - expected;
      tab.statistic += d * d / expected;
    }
  }
  tab.dof = static_cast<double>((kx - 1) * (ky - 1));
  const double k = static_cast<double>(std::min(kx, ky));
  tab.cramers_v = std::sqrt(tab.statistic / (total * (k - 1.0)));
  return tab;
}

}  // namespace

Result<IndependenceResult> ChiSquareIndependence(const std::vector<int>& x,
                                                 const std::vector<int>& y) {
  if (x.size() != y.size()) return Status::InvalidArgument("size mismatch");
  CDI_ASSIGN_OR_RETURN(const CrossTab tab, CrossTabulate(x, y));
  if (tab.rows < 2) return Status::FailedPrecondition("too few rows");
  IndependenceResult r;
  // A constant variable is trivially independent of anything.
  if (tab.kx < 2 || tab.ky < 2) return r;
  r.statistic = tab.statistic;
  r.strength = tab.cramers_v;
  r.p_value = ChiSquareSf(r.statistic, tab.dof);
  return r;
}

std::vector<int> QuantileBin(DoubleSpan x, int bins) {
  return QuantileBin(x, RankOrder(x), bins);
}

std::vector<int> QuantileBin(DoubleSpan x,
                             const std::vector<std::size_t>& order,
                             int bins) {
  std::vector<int> out(x.size(), -1);
  if (order.empty()) return out;
  // Quantile edges read off the presorted order, not a sorted copy each.
  std::vector<double> edges;
  for (int b = 1; b < bins; ++b) {
    edges.push_back(
        QuantileFromOrder(x, order, static_cast<double>(b) / bins));
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i])) continue;
    int code = 0;
    for (double e : edges) {
      if (x[i] > e) ++code;
    }
    out[i] = code;
  }
  return out;
}

}  // namespace cdi::stats
