// Dense linear algebra: row-major matrix, LU with partial pivoting,
// Cholesky for SPD systems, solves and inversion.
//
// A test-only reference: the analyzer's MNA solves go through
// la/sparse.hpp, and test_la_sparse checks them against these dense
// factorizations.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace nw::la {

using Vector = std::vector<double>;

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double& at(std::size_t r, std::size_t c);
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(double s);

  [[nodiscard]] Matrix transposed() const;
  [[nodiscard]] Vector multiply(std::span<const double> x) const;
  [[nodiscard]] Matrix multiply(const Matrix& o) const;

  /// Max-abs entry (useful for tolerance checks in tests).
  [[nodiscard]] double max_abs() const noexcept;

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial (row) pivoting: PA = LU.
///
/// Throws std::runtime_error on (numerically) singular input.
class LuFactor {
 public:
  explicit LuFactor(Matrix a);

  /// Solve A x = b.
  [[nodiscard]] Vector solve(std::span<const double> b) const;
  /// Solve for multiple right-hand sides (columns of B).
  [[nodiscard]] Matrix solve(const Matrix& b) const;
  /// Determinant of A.
  [[nodiscard]] double determinant() const noexcept;
  [[nodiscard]] std::size_t dim() const noexcept { return lu_.rows(); }

 private:
  Matrix lu_;                 // packed L (unit diagonal) and U
  std::vector<std::size_t> perm_;
  int sign_ = 1;
};

/// Cholesky factorization A = L L^T for symmetric positive definite A.
///
/// Throws std::runtime_error if A is not (numerically) SPD — which is also
/// how passivity of a conductance matrix is checked in tests.
class CholeskyFactor {
 public:
  explicit CholeskyFactor(const Matrix& a);

  [[nodiscard]] Vector solve(std::span<const double> b) const;
  [[nodiscard]] std::size_t dim() const noexcept { return l_.rows(); }

 private:
  Matrix l_;
};

/// Invert via LU. Throws on singular input.
[[nodiscard]] Matrix inverse(const Matrix& a);

/// true iff a is symmetric within tol and Cholesky succeeds.
[[nodiscard]] bool is_spd(const Matrix& a, double tol = 1e-9);

/// Strict diagonal dominance check: |a_ii| > sum_{j!=i} |a_ij| for all i.
[[nodiscard]] bool is_strictly_diagonally_dominant(const Matrix& a);

}  // namespace nw::la
