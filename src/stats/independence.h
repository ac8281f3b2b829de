#ifndef CDI_STATS_INDEPENDENCE_H_
#define CDI_STATS_INDEPENDENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/span.h"
#include "common/status.h"

namespace cdi::stats {

/// Result of an (un)conditional independence test.
struct IndependenceResult {
  double statistic = 0.0;
  double p_value = 1.0;
  /// Effect-size proxy (|partial correlation| or Cramer's V).
  double strength = 0.0;
};

/// Chi-square test of independence between two discrete variables encoded
/// as small non-negative integer codes (-1 = missing, skipped pairwise;
/// codes above 2^20 - 1 are InvalidArgument). Codes need not be
/// contiguous. The table is a flat count array over dense ids assigned in
/// first-appearance order; it lives on the stack for up to 16 distinct
/// codes a side, so the binned tests on hot paths never allocate.
Result<IndependenceResult> ChiSquareIndependence(
    const std::vector<int>& x, const std::vector<int>& y);

/// Quantile-bins a numeric vector into `bins` integer codes (NaN -> -1):
/// a value's code is the number of the `bins - 1` equally spaced
/// Quantile edges it exceeds.
std::vector<int> QuantileBin(DoubleSpan x, int bins);

/// QuantileBin(x, bins) bit for bit, given `order` = RankOrder(x). The
/// edges are interpolated order statistics, read off the presorted order,
/// so a column whose rank order is already known is not sorted again.
std::vector<int> QuantileBin(DoubleSpan x,
                             const std::vector<std::size_t>& order, int bins);

}  // namespace cdi::stats

#endif  // CDI_STATS_INDEPENDENCE_H_
