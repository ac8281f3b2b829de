#include "testing/reference.h"

#include <algorithm>
#include <cmath>

#include "stats/correlation.h"
#include "stats/linalg.h"

namespace cdi::testing {

Result<double> ReferencePartialCorrelation(
    const stats::Matrix& corr, std::size_t i, std::size_t j,
    const std::vector<std::size_t>& given) {
  if (given.size() < 2) return stats::PartialCorrelation(corr, i, j, given);
  if (i >= corr.rows() || j >= corr.rows() || i == j) {
    return Status::InvalidArgument("bad variable indices");
  }
  // Cholesky of the submatrix ordered (given..., i, j) + 1e-10·I; the
  // trailing 2x2 block [[a, 0], [b, c]] of the factor gives
  // rho = b / sqrt(b^2 + c^2).
  std::vector<std::size_t> idx(given);
  idx.push_back(i);
  idx.push_back(j);
  stats::Matrix sub = corr.Submatrix(idx);
  for (std::size_t d = 0; d < sub.rows(); ++d) sub(d, d) += 1e-10;
  auto chol = stats::Cholesky(sub);
  if (chol.ok()) {
    const std::size_t m = sub.rows();
    const double b = (*chol)(m - 1, m - 2);
    const double c = (*chol)(m - 1, m - 1);
    const double den = std::sqrt(b * b + c * c);
    if (den <= 1e-12 || !std::isfinite(den)) return 0.0;
    return std::clamp(b / den, -1.0, 1.0);
  }
  return stats::PartialCorrelationPrecisionFallback(corr, i, j, given);
}

}  // namespace cdi::testing
