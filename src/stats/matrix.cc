#include "stats/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace cdi::stats {

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    CDI_CHECK(rows[r].size() == m.cols_) << "ragged rows";
    for (std::size_t c = 0; c < m.cols_; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  CDI_CHECK(cols_ == other.rows_) << "shape mismatch in Multiply";
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (std::size_t j = 0; j < other.cols_; ++j) {
        out(i, j) += a * other(k, j);
      }
    }
  }
  return out;
}

std::vector<double> Matrix::MultiplyVector(const std::vector<double>& v) const {
  CDI_CHECK(v.size() == cols_);
  std::vector<double> out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double s = 0;
    for (std::size_t j = 0; j < cols_; ++j) s += (*this)(i, j) * v[j];
    out[i] = s;
  }
  return out;
}

Matrix Matrix::Add(const Matrix& other) const {
  CDI_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += other.data_[i];
  return out;
}

Matrix Matrix::Subtract(const Matrix& other) const {
  CDI_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= other.data_[i];
  return out;
}

Matrix Matrix::Scale(double s) const {
  Matrix out = *this;
  for (double& v : out.data_) v *= s;
  return out;
}

Matrix Matrix::Submatrix(const std::vector<std::size_t>& idx) const {
  Matrix out(idx.size(), idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    CDI_CHECK(idx[i] < rows_ && idx[i] < cols_);
    const double* src = Row(idx[i]);
    double* dst = out.Row(i);
    for (std::size_t j = 0; j < idx.size(); ++j) {
      dst[j] = src[idx[j]];
    }
  }
  return out;
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  CDI_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double m = 0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::fabs(data_[i] - other.data_[i]));
  }
  return m;
}

bool Matrix::IsSymmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = i + 1; j < cols_; ++j) {
      if (std::fabs((*this)(i, j) - (*this)(j, i)) > tol) return false;
    }
  }
  return true;
}

std::string Matrix::ToString(int precision) const {
  std::ostringstream os;
  char buf[64];
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      std::snprintf(buf, sizeof(buf), "%10.*f", precision, (*this)(r, c));
      os << buf << (c + 1 < cols_ ? " " : "");
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace cdi::stats
