#ifndef CDI_STATS_CORRELATION_H_
#define CDI_STATS_CORRELATION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "stats/matrix.h"

namespace cdi {
class ThreadPool;
}  // namespace cdi

namespace cdi::stats {

/// A dataset view for multivariate statistics: column-major numeric data
/// (one span per variable; NaN = missing) with optional row weights.
///
/// The columns are `DoubleSpan`s, so a dataset built over table columns or
/// caller-held vectors copies nothing — it is constructed once per
/// pipeline run and passed by view through the estimators. Use Own() to
/// make the dataset keep materialized columns alive, or assign borrowing
/// spans (e.g. `cdi::SpansOf(vectors)`, `Column::View()`) when the
/// backing buffers outlive the dataset.
struct NumericDataset {
  std::vector<DoubleSpan> columns;
  /// Optional per-row weights (e.g. IPW weights). Empty means all 1.
  std::vector<double> weights;
  /// Optional per-column null bitmaps (bit r set = row r null; see
  /// Column::NullWords), LSB-first, (num_rows + 63) / 64 words each. When
  /// a column's pointer is non-null, the listwise-deletion mask reads it
  /// instead of scanning the column for NaN — an opt-in that is only
  /// valid when null <=> NaN holds for that column. It always holds for
  /// int64/bool column views; a *double* column may carry non-null NaN
  /// cells (a CSV literal "nan", AppendDouble(NaN)) and must then not opt
  /// in. Empty (the default) or null entries mean: NaN scan. Shorter than
  /// `columns` is fine; missing tail entries are NaN-scanned.
  std::vector<const std::uint64_t*> null_words;

  std::size_t num_vars() const { return columns.size(); }
  std::size_t num_rows() const {
    return columns.empty() ? 0 : columns[0].size();
  }

  /// Dataset that owns `cols` (each span shares its vector's lifetime).
  static NumericDataset Own(std::vector<std::vector<double>> cols) {
    NumericDataset ds;
    ds.columns.reserve(cols.size());
    for (auto& c : cols) ds.columns.emplace_back(std::move(c));
    return ds;
  }
};

/// Sample covariance matrix over complete rows (listwise deletion of rows
/// with any NaN among the variables; weighted when weights are given).
/// Runs the blocked SufficientStats kernel; `pool` parallelizes it with a
/// bitwise-deterministic reduction (null = serial, same bits).
Result<Matrix> CovarianceMatrix(const NumericDataset& data,
                                ThreadPool* pool = nullptr);

/// Sample correlation matrix over complete rows. Variables with zero
/// variance get correlation 0 with everything (1 on the diagonal).
Result<Matrix> CorrelationMatrix(const NumericDataset& data,
                                 ThreadPool* pool = nullptr);

/// Number of complete rows used by the listwise-deletion estimators.
/// Word-at-a-time over the columns (null bitmaps when opted in, NaN scans
/// otherwise); allocates nothing.
std::size_t CompleteRowCount(const NumericDataset& data);

/// Partial correlation rho(i, j | given) computed from a correlation
/// matrix: closed forms for |given| <= 1, otherwise one Cholesky
/// factorization of the submatrix over (given..., i, j) + 1e-10·I, built
/// in thread-local buffers (allocation-free after warm-up; safe to call
/// from several threads at once).
///
/// The result is a pure function of its arguments *in the order given*.
/// For |given| >= 2 the factor runs in argument order, so swapping i and
/// j, or permuting `given`, can change the low bits. Callers that need
/// bit-identical answers must pass the same order; no memo or shortcut
/// may treat (i, j, given) as an unordered key.
Result<double> PartialCorrelation(const Matrix& corr, std::size_t i,
                                  std::size_t j,
                                  const std::vector<std::size_t>& given);

/// The non-SPD escape hatch of PartialCorrelation: the pivoted
/// precision-matrix route taken when Cholesky of the ridged submatrix
/// fails (severely collinear conditioning set). Exposed so reference
/// implementations land on the same fallback arithmetic. Requires
/// |given| >= 2 and valid distinct indices.
double PartialCorrelationPrecisionFallback(
    const Matrix& corr, std::size_t i, std::size_t j,
    const std::vector<std::size_t>& given);

/// Fisher-z two-sided p-value for testing rho = 0, where `r` is the
/// (partial) correlation, `n` the sample size and `k` the size of the
/// conditioning set. Returns 1 when n - k - 3 <= 0.
double FisherZPValue(double r, std::size_t n, std::size_t k);

}  // namespace cdi::stats

#endif  // CDI_STATS_CORRELATION_H_
