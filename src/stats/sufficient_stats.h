#ifndef CDI_STATS_SUFFICIENT_STATS_H_
#define CDI_STATS_SUFFICIENT_STATS_H_

#include <cstdint>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "stats/correlation.h"
#include "stats/matrix.h"

namespace cdi {
class ThreadPool;
}  // namespace cdi

namespace cdi::stats {

/// Shared sufficient statistics of a numeric dataset: the complete-row
/// mask, per-column weighted means and the centered weighted
/// cross-product matrix S(a, b) = sum_r w_r (x_a - m_a)(x_b - m_b) over
/// listwise-complete rows. Once S is known, every Gaussian stage of the
/// pipeline — Fisher-z CI tests, VARCLUS correlations, GES BIC local
/// scores, OLS effect estimates — is small linear algebra on submatrices
/// of S; nothing downstream re-reads the raw rows.
///
/// The kernel is cache-blocked (tiled syrk-style over column pairs),
/// parallelized in chunked tile-pair tasks, and vectorized through the
/// runtime-dispatched Gram microkernels (stats/gram_kernel.h: scalar
/// std::fma, AVX2/NEON, AVX-512), with a *deterministic reduction*: each
/// matrix entry is accumulated by exactly one slab, with one fused
/// multiply-add per complete row in ascending row order. Results are
/// therefore bitwise identical for any thread count, for any SIMD
/// backend (FMA is correctly rounded on all of them), and to the scalar
/// reference kernel — only the memory access order and the number of
/// independent entries advanced per instruction change.
///
/// The complete-row mask is built word-level: each column's NaN positions
/// are packed into 64-bit words (branchlessly, or taken from a
/// caller-provided null bitmap — see NumericDataset::null_words) and
/// combined with bitwise AND, replacing the branchy per-row
/// isnan-over-all-columns prescan.
///
/// AppendRows extends the statistics with a row batch — the serving
/// layer's epoch rollover — bitwise identical to a full recompute.
class SufficientStats {
 public:
  SufficientStats() = default;

  /// Builds the statistics over `data`. NaN cells mark missing values;
  /// rows with any missing value are excluded (listwise deletion).
  /// `pool` parallelizes the kernel (null = serial); the result is
  /// bitwise independent of the pool.
  ///
  /// Fails like the legacy CovarianceMatrix: no variables, ragged
  /// columns, weight size mismatch, fewer than 2 complete rows, or
  /// weights summing to zero.
  static Result<SufficientStats> Compute(const NumericDataset& data,
                                         ThreadPool* pool = nullptr);

  std::size_t num_vars() const { return columns_.size(); }
  /// Raw row count (before listwise deletion).
  std::size_t num_rows() const { return num_rows_; }
  /// Complete (listwise-retained) row count — popcount of the mask.
  std::size_t complete_rows() const { return complete_rows_; }
  /// Sum of weights over complete rows (= complete_rows() unweighted).
  double weight_sum() const { return wsum_; }
  bool weighted() const { return !weights_.empty(); }

  /// Weighted column means over complete rows.
  const std::vector<double>& means() const { return means_; }

  /// Complete-row bitmap (bit r set = row r complete), LSB-first within
  /// each 64-bit word.
  const std::vector<std::uint64_t>& complete_mask() const { return mask_; }

  /// Centered weighted cross-product matrix S (p x p, symmetric).
  const Matrix& cross_products() const { return sxx_; }

  /// Sample covariance: S / max(1, weight_sum() - 1). Entrywise equal to
  /// the legacy CovarianceMatrix.
  Matrix Covariance() const;

  /// Sample correlation derived from Covariance(); zero-variance columns
  /// correlate 0 with everything (1 on the diagonal).
  Matrix Correlation() const;

  /// Extends the statistics with `new_rows` rows appended to every
  /// column. `cols` are full-length spans over the *concatenated*
  /// columns (old rows first, then the new ones); the old prefix must
  /// hold exactly the values the statistics were computed over. Passing
  /// fresh spans is deliberate: appending to a table reallocates its
  /// buffers, so the caller re-borrows views over the grown storage and
  /// this object drops its now-dangling spans. For weighted statistics
  /// `weights` must likewise be the full concatenated weight vector;
  /// pass empty for unweighted statistics.
  ///
  /// Contract: the result is bitwise identical to Compute() over the
  /// concatenated dataset, at any thread count. A true rank-k update of
  /// the *centered* Gram cannot meet that bar —
  /// appended rows shift every column mean, which changes every entry's
  /// floating-point accumulation sequence — so the per-column
  /// accumulators (complete-row mask, weight sum, pre-division column
  /// sums, hence means) are continued in O(new_rows * p) exactly where
  /// Compute's sequential scans would resume, and the Gram is re-swept
  /// through the blocked kernel over the full row set. When the appended
  /// rows contain no complete row the means cannot move and the sweep is
  /// skipped: the whole append is O(new_rows * p). On error the object
  /// is unchanged.
  Status AppendRows(const std::vector<DoubleSpan>& cols, std::size_t new_rows,
                    const std::vector<double>& weights = {},
                    ThreadPool* pool = nullptr);

  /// Whether the last AppendRows took the incremental path: the Gram
  /// sweep was skipped because the batch held no new complete row.
  /// Benchmark/test introspection.
  bool last_append_incremental() const { return last_append_incremental_; }

  /// Gaussian BIC of regressing `target` on `parents`, computed from S by
  /// Cholesky on the parents' submatrix (no pass over raw rows):
  /// n log(2 pi sigma^2) + n + log(n) (|parents| + 2), sigma^2 = rss / n
  /// with n = complete_rows(). Matches GaussianBicLocalScore semantics;
  /// for empty parent sets the value is bitwise identical.
  Result<double> GaussianBicLocal(
      std::size_t target, const std::vector<std::size_t>& parents) const;

 private:
  std::vector<DoubleSpan> columns_;
  std::vector<double> weights_;
  std::vector<std::uint64_t> mask_;
  std::size_t num_rows_ = 0;
  std::size_t complete_rows_ = 0;
  double wsum_ = 0.0;
  /// Pre-division weighted column sums over complete rows — the running
  /// accumulators AppendRows continues; means_ = col_sums_ / wsum_.
  std::vector<double> col_sums_;
  std::vector<double> means_;
  Matrix sxx_;
  bool last_append_incremental_ = false;
};

/// Straight-line scalar covariance kernel (the pre-blocking
/// implementation): listwise deletion via a per-row isnan scan, then a
/// row-interleaved O(n p^2) accumulation using one std::fma per entry
/// per row — the same per-entry operation sequence as every blocked
/// backend. Kept as the bitwise reference for the blocked kernel's
/// tests and as the "before" side of the benchmark sweep; production
/// callers use SufficientStats.
Result<Matrix> ReferenceCovarianceMatrix(const NumericDataset& data);

}  // namespace cdi::stats

#endif  // CDI_STATS_SUFFICIENT_STATS_H_
