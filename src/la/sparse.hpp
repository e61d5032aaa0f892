// Sparse linear algebra: triplet assembly, CSR storage, and a direct
// sparse LU (row-map Gaussian elimination with threshold partial pivoting).
//
// MNA matrices of full-design RC networks are extremely sparse (a handful
// of entries per row). The solver here trades peak asymptotic cleverness
// for simplicity and robustness; with reverse Cuthill–McKee-style locality
// the fill-in stays small for tree-structured RC nets.
//
// Factor layout. SparseLu eliminates on row maps once, then stores its
// factors as flat CSR arrays: the row permutation, L's strictly-lower rows
// (unit diagonal implied) as row pointers / pivot-step columns /
// multipliers, U's off-diagonal rows the same way, and U's diagonal split
// out into its own array. Substitution walks those arrays with no
// allocation. The arrays are readable (SparseLu::factors()): two factors
// with the same structure (same_structure()) differ only in their value
// arrays, so the transient engine walks one set of index arrays for many
// factors at once, one value array per lane (spice/transient.hpp).
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <stdexcept>
#include <vector>

namespace nw::la {

/// Coordinate-format accumulator. Duplicate (r,c) entries sum, which is
/// exactly the "stamping" idiom circuit simulators use.
class TripletBuilder {
 public:
  explicit TripletBuilder(std::size_t n) : n_(n), rows_(n) {}

  [[nodiscard]] std::size_t dim() const noexcept { return n_; }

  /// Accumulate v at (r, c).
  void add(std::size_t r, std::size_t c, double v);

  /// Read an entry (0.0 if absent).
  [[nodiscard]] double get(std::size_t r, std::size_t c) const;

  [[nodiscard]] const std::map<std::size_t, double>& row(std::size_t r) const {
    return rows_[r];
  }

  [[nodiscard]] std::size_t nonzeros() const noexcept;

 private:
  friend class SparseMatrix;
  friend class SparseLu;
  std::size_t n_;
  std::vector<std::map<std::size_t, double>> rows_;
};

/// Compressed sparse row matrix (immutable after construction).
class SparseMatrix {
 public:
  explicit SparseMatrix(const TripletBuilder& b);

  [[nodiscard]] std::size_t dim() const noexcept { return n_; }
  [[nodiscard]] std::size_t nonzeros() const noexcept { return vals_.size(); }

  /// y = A x
  [[nodiscard]] std::vector<double> multiply(std::span<const double> x) const;

  /// Row r of A x, summed over the row's entries in column order (what
  /// multiply() stores in y[r]). Unchecked.
  [[nodiscard]] double row_dot(std::size_t r, std::span<const double> x) const noexcept {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) acc += vals_[k] * x[col_[k]];
    return acc;
  }

  /// Entry lookup (binary search within the row; 0.0 if absent).
  [[nodiscard]] double get(std::size_t r, std::size_t c) const;

  /// The CSR arrays: row r's entries are [row_ptr[r], row_ptr[r+1]) of
  /// col (ascending) and val.
  struct Csr {
    std::span<const std::size_t> row_ptr;
    std::span<const std::size_t> col;
    std::span<const double> val;
  };
  [[nodiscard]] Csr csr() const noexcept { return {row_ptr_, col_, vals_}; }

  /// Same dimension and the same entry positions (values may differ).
  [[nodiscard]] bool same_pattern(const SparseMatrix& o) const noexcept {
    return n_ == o.n_ && row_ptr_ == o.row_ptr_ && col_ == o.col_;
  }

 private:
  std::size_t n_;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_;
  std::vector<double> vals_;
};

/// Direct sparse LU with threshold partial pivoting on row maps.
///
/// Factorizes once; the solves may be called repeatedly (transient
/// simulation re-solves every timestep with a fixed step size and fixed
/// matrix). The factors live in flat arrays (see the file comment).
class SparseLu {
 public:
  /// Factorize. `pivot_threshold` in (0,1]: a diagonal is accepted if its
  /// magnitude is at least threshold * (largest magnitude in its column
  /// among remaining rows); otherwise rows are swapped. 1.0 = strict
  /// partial pivoting.
  explicit SparseLu(const TripletBuilder& a, double pivot_threshold = 0.1);

  [[nodiscard]] std::size_t dim() const noexcept { return n_; }

  /// x = A^-1 b in a fresh vector (a wrapper over solve_into).
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  /// x = A^-1 b into caller buffers: forward substitution writes y, back
  /// substitution writes x. Every span has dim() entries; y must not alias
  /// b or x, but b may alias x (b is read in full before x is written).
  void solve_into(std::span<const double> b, std::span<double> y,
                  std::span<double> x) const;

  /// The flat factor arrays (see the file comment). Pivot i uses row
  /// perm[i]; L row i holds [l_ptr[i], l_ptr[i+1]) of l_col (pivot steps,
  /// ascending) and l_val; U row i holds its off-diagonal entries
  /// [u_ptr[i], u_ptr[i+1]) of u_col (ascending) and u_val, and its
  /// diagonal u_diag[i].
  struct Factors {
    std::span<const std::size_t> perm;
    std::span<const std::size_t> l_ptr;
    std::span<const std::size_t> l_col;
    std::span<const double> l_val;
    std::span<const std::size_t> u_ptr;
    std::span<const std::size_t> u_col;
    std::span<const double> u_val;
    std::span<const double> u_diag;
  };
  [[nodiscard]] Factors factors() const noexcept {
    return {perm_, l_ptr_, l_col_, l_val_, u_ptr_, u_col_, u_val_, u_diag_};
  }

  /// Same dimension, row permutation and L and U patterns: the factors
  /// differ only in their value arrays. Threshold pivoting picks the
  /// permutation from the values, so equal matrix patterns do not imply it.
  [[nodiscard]] bool same_structure(const SparseLu& o) const noexcept {
    return n_ == o.n_ && perm_ == o.perm_ && l_ptr_ == o.l_ptr_ && l_col_ == o.l_col_ &&
           u_ptr_ == o.u_ptr_ && u_col_ == o.u_col_;
  }

 private:
  std::size_t n_;
  std::vector<std::size_t> perm_;  // row permutation: use row perm_[i] as pivot i
  // L: strictly lower, unit diagonal implied; columns are pivot steps.
  std::vector<std::size_t> l_ptr_;
  std::vector<std::size_t> l_col_;
  std::vector<double> l_val_;
  // U: off-diagonal entries (columns > row, ascending) and the diagonal.
  std::vector<std::size_t> u_ptr_;
  std::vector<std::size_t> u_col_;
  std::vector<double> u_val_;
  std::vector<double> u_diag_;
};

}  // namespace nw::la
