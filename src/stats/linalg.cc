#include "stats/linalg.h"

#include <algorithm>
#include <cmath>

namespace cdi::stats {

Result<Matrix> Cholesky(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky needs a square matrix");
  }
  const std::size_t n = a.rows();
  Matrix l(n, n);
  // Raw-row access; callers are CholeskySolve, LogDet and the bitwise
  // reference for stats::PartialCorrelation, whose packed factor replays
  // this loop's arithmetic (operands, order).
  for (std::size_t i = 0; i < n; ++i) {
    const double* ai = a.Row(i);
    double* li = l.Row(i);
    for (std::size_t j = 0; j <= i; ++j) {
      const double* lj = l.Row(j);
      double s = ai[j];
      for (std::size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
      if (i == j) {
        if (s <= 0.0) {
          return Status::FailedPrecondition(
              "matrix is not positive definite (pivot " + std::to_string(s) +
              " at " + std::to_string(i) + ")");
        }
        li[j] = std::sqrt(s);
      } else {
        li[j] = s / lj[j];
      }
    }
  }
  return l;
}

Result<std::vector<double>> CholeskySolve(const Matrix& a,
                                          const std::vector<double>& b) {
  CDI_ASSIGN_OR_RETURN(Matrix l, Cholesky(a));
  const std::size_t n = a.rows();
  if (b.size() != n) return Status::InvalidArgument("rhs size mismatch");
  // Forward solve L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  // Back solve L^T x = y.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

Result<std::vector<double>> SolveLinear(const Matrix& a,
                                        const std::vector<double>& b) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SolveLinear needs a square matrix");
  }
  const std::size_t n = a.rows();
  if (b.size() != n) return Status::InvalidArgument("rhs size mismatch");
  Matrix m = a;
  std::vector<double> rhs = b;
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t piv = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(m(r, col)) > std::fabs(m(piv, col))) piv = r;
    }
    if (std::fabs(m(piv, col)) < 1e-12) {
      return Status::FailedPrecondition("singular matrix in SolveLinear");
    }
    if (piv != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(m(piv, c), m(col, c));
      std::swap(rhs[piv], rhs[col]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = m(r, col) / m(col, col);
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) m(r, c) -= f * m(col, c);
      rhs[r] -= f * rhs[col];
    }
  }
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = rhs[ii];
    for (std::size_t c = ii + 1; c < n; ++c) s -= m(ii, c) * x[c];
    x[ii] = s / m(ii, ii);
  }
  return x;
}

Result<Matrix> Inverse(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Inverse needs a square matrix");
  }
  const std::size_t n = a.rows();
  Matrix m = a;
  Matrix inv = Matrix::Identity(n);
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t piv = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(m(r, col)) > std::fabs(m(piv, col))) piv = r;
    }
    if (std::fabs(m(piv, col)) < 1e-12) {
      return Status::FailedPrecondition("singular matrix in Inverse");
    }
    if (piv != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(m(piv, c), m(col, c));
        std::swap(inv(piv, c), inv(col, c));
      }
    }
    const double d = m(col, col);
    for (std::size_t c = 0; c < n; ++c) {
      m(col, c) /= d;
      inv(col, c) /= d;
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double f = m(r, col);
      if (f == 0.0) continue;
      for (std::size_t c = 0; c < n; ++c) {
        m(r, c) -= f * m(col, c);
        inv(r, c) -= f * inv(col, c);
      }
    }
  }
  return inv;
}

Result<EigenDecomposition> JacobiEigen(const Matrix& a, int max_sweeps,
                                       double tol) {
  if (!a.IsSymmetric(1e-8)) {
    return Status::InvalidArgument("JacobiEigen needs a symmetric matrix");
  }
  const std::size_t n = a.rows();
  Matrix d = a;
  Matrix v = Matrix::Identity(n);
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) off += d(p, q) * d(p, q);
    }
    if (off < tol) break;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        if (std::fabs(d(p, q)) < 1e-300) continue;
        const double theta = (d(q, q) - d(p, p)) / (2.0 * d(p, q));
        const double t = std::copysign(
            1.0 / (std::fabs(theta) + std::sqrt(theta * theta + 1.0)), theta);
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply rotation G(p,q): D = G^T D G; V = V G.
        for (std::size_t k = 0; k < n; ++k) {
          const double dkp = d(k, p);
          const double dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double dpk = d(p, k);
          const double dqk = d(q, k);
          d(p, k) = c * dpk - s * dqk;
          d(q, k) = s * dpk + c * dqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  EigenDecomposition out;
  out.values.resize(n);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.values[i] = d(i, i);
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return d(x, x) > d(y, y);
  });
  EigenDecomposition sorted;
  sorted.values.resize(n);
  sorted.vectors = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    sorted.values[i] = out.values[order[i]];
    for (std::size_t k = 0; k < n; ++k) sorted.vectors(k, i) = v(k, order[i]);
  }
  return sorted;
}

Result<std::vector<double>> SolveNormalEquations(
    Matrix xtx, const std::vector<double>& xty, double ridge) {
  const std::size_t p = xtx.rows();
  for (std::size_t a = 0; a < p; ++a) {
    xtx(a, a) += ridge;
    for (std::size_t b = a + 1; b < p; ++b) xtx(b, a) = xtx(a, b);
  }
  auto sol = CholeskySolve(xtx, xty);
  if (sol.ok()) return sol;
  // Collinear design: retry with a stronger ridge before giving up.
  for (std::size_t a = 0; a < p; ++a) xtx(a, a) += 1e-6;
  return CholeskySolve(xtx, xty);
}

Result<std::vector<double>> LeastSquares(const Matrix& x,
                                         const std::vector<double>& y,
                                         double ridge) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("X rows must equal y size");
  }
  const std::size_t p = x.cols();
  Matrix xtx(p, p);
  std::vector<double> xty(p, 0.0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t a = 0; a < p; ++a) {
      const double xa = x(i, a);
      xty[a] += xa * y[i];
      for (std::size_t b = a; b < p; ++b) {
        xtx(a, b) += xa * x(i, b);
      }
    }
  }
  return SolveNormalEquations(std::move(xtx), xty, ridge);
}

Result<std::vector<double>> WeightedLeastSquares(const Matrix& x,
                                                 const std::vector<double>& y,
                                                 const std::vector<double>& w,
                                                 double ridge) {
  if (x.rows() != y.size() || w.size() != y.size()) {
    return Status::InvalidArgument("X/y/w size mismatch");
  }
  double wsum = 0;
  for (double wi : w) {
    if (wi < 0) return Status::InvalidArgument("negative weight");
    wsum += wi;
  }
  if (wsum <= 0) return Status::InvalidArgument("weights sum to zero");
  const std::size_t p = x.cols();
  Matrix xtx(p, p);
  std::vector<double> xty(p, 0.0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double wi = w[i];
    if (wi == 0) continue;
    for (std::size_t a = 0; a < p; ++a) {
      const double xa = x(i, a);
      xty[a] += wi * xa * y[i];
      for (std::size_t b = a; b < p; ++b) xtx(a, b) += wi * xa * x(i, b);
    }
  }
  return SolveNormalEquations(std::move(xtx), xty, ridge);
}

}  // namespace cdi::stats
