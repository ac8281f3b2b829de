#include "stats/correlation.h"

#include <algorithm>
#include <cmath>

#include "stats/distributions.h"
#include "stats/linalg.h"
#include "stats/sufficient_stats.h"

namespace cdi::stats {

// CompleteRowCount is defined in sufficient_stats.cc alongside the mask
// machinery it shares with the blocked kernel.

Result<Matrix> CovarianceMatrix(const NumericDataset& data,
                                ThreadPool* pool) {
  CDI_ASSIGN_OR_RETURN(SufficientStats s, SufficientStats::Compute(data, pool));
  return s.Covariance();
}

Result<Matrix> CorrelationMatrix(const NumericDataset& data,
                                 ThreadPool* pool) {
  CDI_ASSIGN_OR_RETURN(SufficientStats s, SufficientStats::Compute(data, pool));
  return s.Correlation();
}

namespace {

// Writes row t of the packed lower-triangular factor (row t starts at
// t(t+1)/2 and has t+1 entries) of corr[s, s] + 1e-10·I into `l`, whose
// rows before t are already written. The loop body replays Cholesky()
// row t exactly — same reads, same subtraction order (k ascending), same
// pivot test — so the packed factor is bitwise the one Cholesky()
// computes on the ridged submatrix. Returns false on a non-positive pivot.
bool FactorRow(const Matrix& corr, const std::vector<std::size_t>& s,
               std::size_t t, double* l) {
  CDI_CHECK(s[t] < corr.rows());
  const double* ct = corr.Row(s[t]);
  double* row = l + t * (t + 1) / 2;
  for (std::size_t j = 0; j < t; ++j) {
    double sum = ct[s[j]];
    const double* rj = l + j * (j + 1) / 2;
    for (std::size_t k = 0; k < j; ++k) sum -= row[k] * rj[k];
    row[j] = sum / rj[j];
  }
  double sum = ct[s[t]] + 1e-10;
  for (std::size_t k = 0; k < t; ++k) sum -= row[k] * row[k];
  if (sum <= 0.0) return false;
  row[t] = std::sqrt(sum);
  return true;
}

}  // namespace

Result<double> PartialCorrelation(const Matrix& corr, std::size_t i,
                                  std::size_t j,
                                  const std::vector<std::size_t>& given) {
  if (i >= corr.rows() || j >= corr.rows() || i == j) {
    return Status::InvalidArgument("bad variable indices");
  }
  if (given.empty()) return corr(i, j);
  if (given.size() == 1) {
    // Closed form for a single conditioning variable.
    const std::size_t k = given[0];
    const double rij = corr(i, j);
    const double rik = corr(i, k);
    const double rjk = corr(j, k);
    const double den = std::sqrt((1 - rik * rik) * (1 - rjk * rjk));
    if (den <= 1e-12) return 0.0;
    return std::clamp((rij - rik * rjk) / den, -1.0, 1.0);
  }
  // General case via Cholesky of the submatrix ordered (given..., i, j),
  // with a tiny ridge against singular submatrices from deterministic
  // relationships: with L the factor, the trailing 2x2 block
  // [[a, 0], [b, c]] satisfies Cov(i, j | given) = [[a^2, ab],
  // [ab, b^2 + c^2]], so the partial correlation is b / sqrt(b^2 + c^2).
  // This is the per-query hot path of PC, so the factor is built row by
  // row into thread-local packed buffers: no allocation after warm-up,
  // and the bits of Cholesky() on the ridged submatrix.
  thread_local std::vector<std::size_t> idx;
  thread_local std::vector<double> l;
  idx.assign(given.begin(), given.end());
  idx.push_back(i);
  idx.push_back(j);
  const std::size_t m = idx.size();
  if (l.size() < m * (m + 1) / 2) l.resize(m * (m + 1) / 2);
  bool ok = true;
  for (std::size_t t = 0; t < m && ok; ++t) {
    ok = FactorRow(corr, idx, t, l.data());
  }
  if (ok) {
    const double* last = l.data() + (m - 1) * m / 2;
    const double b = last[m - 2];
    const double c = last[m - 1];
    const double den = std::sqrt(b * b + c * c);
    if (den <= 1e-12 || !std::isfinite(den)) return 0.0;
    return std::clamp(b / den, -1.0, 1.0);
  }
  // Non-SPD even with the ridge (severely collinear conditioning set):
  // fall back to the precision-matrix route, whose pivoting tolerates it.
  return PartialCorrelationPrecisionFallback(corr, i, j, given);
}

double PartialCorrelationPrecisionFallback(
    const Matrix& corr, std::size_t i, std::size_t j,
    const std::vector<std::size_t>& given) {
  std::vector<std::size_t> pidx = {i, j};
  pidx.insert(pidx.end(), given.begin(), given.end());
  Matrix psub = corr.Submatrix(pidx);
  for (std::size_t d = 0; d < psub.rows(); ++d) psub(d, d) += 1e-10;
  auto inv = Inverse(psub);
  if (!inv.ok()) return 0.0;  // treat a degenerate system as uncorrelated
  const Matrix& p = *inv;
  const double den = std::sqrt(p(0, 0) * p(1, 1));
  if (den <= 1e-12 || !std::isfinite(den)) return 0.0;
  return std::clamp(-p(0, 1) / den, -1.0, 1.0);
}

double FisherZPValue(double r, std::size_t n, std::size_t k) {
  if (n <= k + 3) return 1.0;
  // A degenerate estimate (NaN partial correlation from a zero-variance or
  // otherwise broken column) carries no evidence against independence.
  if (std::isnan(r)) return 1.0;
  // atanh diverges as |r| -> 1; clamp so exactly/near-collinear columns
  // yield a huge finite statistic (p ~ 0) instead of inf/NaN.
  constexpr double kMaxAbsR = 1.0 - 1e-12;
  r = std::clamp(r, -kMaxAbsR, kMaxAbsR);
  const double z = std::atanh(r);
  const double stat =
      std::sqrt(static_cast<double>(n - k) - 3.0) * std::fabs(z);
  return 2.0 * NormalSf(stat);
}

}  // namespace cdi::stats
