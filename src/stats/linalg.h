#ifndef CDI_STATS_LINALG_H_
#define CDI_STATS_LINALG_H_

#include <vector>

#include "common/status.h"
#include "stats/matrix.h"

namespace cdi::stats {

/// Result of a symmetric eigendecomposition: A = V diag(values) V^T.
/// Eigenpairs are sorted by descending eigenvalue; eigenvector i is the
/// i-th *column* of `vectors`.
struct EigenDecomposition {
  std::vector<double> values;
  Matrix vectors;
};

/// Cholesky factor L (lower triangular, A = L L^T) of a symmetric
/// positive-definite matrix. Fails on non-SPD input.
Result<Matrix> Cholesky(const Matrix& a);

/// Solves A x = b for symmetric positive-definite A via Cholesky.
Result<std::vector<double>> CholeskySolve(const Matrix& a,
                                          const std::vector<double>& b);

/// Solves A x = b by Gaussian elimination with partial pivoting
/// (general square A). Fails on (numerically) singular input.
Result<std::vector<double>> SolveLinear(const Matrix& a,
                                        const std::vector<double>& b);

/// Inverse of a square matrix (Gauss-Jordan with partial pivoting).
Result<Matrix> Inverse(const Matrix& a);

/// Eigendecomposition of a symmetric matrix by the cyclic Jacobi method.
Result<EigenDecomposition> JacobiEigen(const Matrix& a,
                                       int max_sweeps = 64,
                                       double tol = 1e-12);

/// Solves the normal equations xtx beta = xty, where `xtx` carries the
/// accumulated Gram in its upper triangle (the lower triangle is ignored
/// and overwritten by mirroring). Adds `ridge` to the diagonal, solves by
/// Cholesky, and retries once with a stronger 1e-6 ridge for collinear
/// systems — the shared tail of LeastSquares / WeightedLeastSquares /
/// FitOls and of every sufficient-statistics consumer that regresses on a
/// covariance submatrix.
Result<std::vector<double>> SolveNormalEquations(Matrix xtx,
                                                 const std::vector<double>& xty,
                                                 double ridge);

/// Minimum-norm least squares: minimizes ||X beta - y||^2 via the normal
/// equations with a tiny ridge (`ridge`) added to the diagonal for
/// numerical robustness against collinear columns.
Result<std::vector<double>> LeastSquares(const Matrix& x,
                                         const std::vector<double>& y,
                                         double ridge = 1e-9);

/// Weighted least squares: minimizes sum_i w_i (x_i beta - y_i)^2.
/// Weights must be non-negative with a positive sum.
Result<std::vector<double>> WeightedLeastSquares(
    const Matrix& x, const std::vector<double>& y,
    const std::vector<double>& w, double ridge = 1e-9);

}  // namespace cdi::stats

#endif  // CDI_STATS_LINALG_H_
