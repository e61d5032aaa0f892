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
// allocation, so a transient run can re-solve every timestep in place
// (SparseLu::solve_fused).
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

  /// solve_into with the right-hand side produced on demand: `rhs(r)`
  /// returns b[r] and is called once per row, in pivot order, before any
  /// entry of x is written. A caller can thus assemble b from the previous
  /// x inside the forward substitution and step x in place. Unchecked
  /// beyond the span sizes.
  template <typename Rhs>
  void solve_fused(Rhs&& rhs, std::span<double> y, std::span<double> x) const {
    if (y.size() != n_ || x.size() != n_) {
      throw std::invalid_argument("SparseLu::solve: size");
    }
    // Forward: L y = P b (L rows hold multipliers indexed by pivot step).
    for (std::size_t i = 0; i < n_; ++i) {
      double acc = rhs(perm_[i]);
      for (std::size_t k = l_ptr_[i]; k < l_ptr_[i + 1]; ++k) acc -= l_val_[k] * y[l_col_[k]];
      y[i] = acc;
    }
    // Back: U x = y, off-diagonal entries in ascending column order.
    for (std::size_t i = n_; i-- > 0;) {
      double acc = y[i];
      for (std::size_t k = u_ptr_[i]; k < u_ptr_[i + 1]; ++k) acc -= u_val_[k] * x[u_col_[k]];
      x[i] = acc / u_diag_[i];
    }
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
