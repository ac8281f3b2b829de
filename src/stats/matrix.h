#ifndef CDI_STATS_MATRIX_H_
#define CDI_STATS_MATRIX_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace cdi::stats {

/// std::allocator that default-initializes on no-argument construct, so
/// `resize(n)` leaves doubles uninitialized instead of zero-filling.
/// Explicit fills (`vector(n, v)`) are unaffected. Exists so producers
/// that overwrite every entry (Matrix::Uninitialized) can skip a full
/// write pass over the storage.
template <class T>
struct DefaultInitAlloc : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAlloc<U>;
  };
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

/// Dense row-major matrix of doubles.
///
/// Sized for CDI's workloads (correlation matrices over at most a few
/// hundred attributes); all algorithms that use it are O(n^3) or better.
class Matrix {
 public:
  using Storage = std::vector<double, DefaultInitAlloc<double>>;

  Matrix() : rows_(0), cols_(0) {}
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Matrix whose storage is left uninitialized — for producers that
  /// overwrite every entry, skipping the zero-fill pass the normal
  /// constructor pays. Reading an entry before writing it is UB.
  static Matrix Uninitialized(std::size_t rows, std::size_t cols) {
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_.resize(rows * cols);
    return m;
  }

  /// Identity matrix of order n.
  static Matrix Identity(std::size_t n);

  /// Builds a matrix from nested initializer-style data (rows of equal
  /// length).
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    CDI_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    CDI_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Raw storage (row-major).
  const Storage& data() const { return data_; }

  /// Unchecked raw row access (row-major; caller guarantees r < rows()).
  /// For hot kernels where the per-access CDI_CHECK of operator() costs
  /// real time or blocks vectorization; everything else should keep the
  /// checked operator().
  double* Row(std::size_t r) { return data_.data() + r * cols_; }
  const double* Row(std::size_t r) const {
    return data_.data() + r * cols_;
  }

  Matrix Transpose() const;

  /// Matrix product; inner dimensions must agree.
  Matrix Multiply(const Matrix& other) const;

  /// Matrix-vector product; v.size() must equal cols().
  std::vector<double> MultiplyVector(const std::vector<double>& v) const;

  /// Elementwise sum/difference; shapes must agree.
  Matrix Add(const Matrix& other) const;
  Matrix Subtract(const Matrix& other) const;

  /// Scales every element.
  Matrix Scale(double s) const;

  /// Rows/columns restricted to `idx` (square selection), preserving order.
  Matrix Submatrix(const std::vector<std::size_t>& idx) const;

  /// Maximum |a_ij - b_ij|; shapes must agree.
  double MaxAbsDiff(const Matrix& other) const;

  /// True if the matrix is square and symmetric within `tol`.
  bool IsSymmetric(double tol = 1e-9) const;

  /// Debug rendering.
  std::string ToString(int precision = 4) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  Storage data_;
};

}  // namespace cdi::stats

#endif  // CDI_STATS_MATRIX_H_
