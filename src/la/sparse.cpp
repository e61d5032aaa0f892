#include "la/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nw::la {

void TripletBuilder::add(std::size_t r, std::size_t c, double v) {
  if (r >= n_ || c >= n_) throw std::out_of_range("TripletBuilder::add");
  rows_[r][c] += v;
}

double TripletBuilder::get(std::size_t r, std::size_t c) const {
  if (r >= n_ || c >= n_) throw std::out_of_range("TripletBuilder::get");
  const auto it = rows_[r].find(c);
  return it == rows_[r].end() ? 0.0 : it->second;
}

std::size_t TripletBuilder::nonzeros() const noexcept {
  std::size_t nnz = 0;
  for (const auto& r : rows_) nnz += r.size();
  return nnz;
}

SparseMatrix::SparseMatrix(const TripletBuilder& b) : n_(b.dim()) {
  row_ptr_.reserve(n_ + 1);
  row_ptr_.push_back(0);
  for (std::size_t r = 0; r < n_; ++r) {
    for (const auto& [c, v] : b.row(r)) {
      col_.push_back(c);
      vals_.push_back(v);
    }
    row_ptr_.push_back(col_.size());
  }
}

std::vector<double> SparseMatrix::multiply(std::span<const double> x) const {
  if (x.size() != n_) throw std::invalid_argument("SparseMatrix::multiply: size");
  std::vector<double> y(n_);
  for (std::size_t r = 0; r < n_; ++r) y[r] = row_dot(r, x);
  return y;
}

double SparseMatrix::get(std::size_t r, std::size_t c) const {
  if (r >= n_ || c >= n_) throw std::out_of_range("SparseMatrix::get");
  const auto first = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto last = col_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(first, last, c);
  if (it == last || *it != c) return 0.0;
  return vals_[static_cast<std::size_t>(it - col_.begin())];
}

SparseLu::SparseLu(const TripletBuilder& a, double pivot_threshold) : n_(a.dim()) {
  if (pivot_threshold <= 0.0 || pivot_threshold > 1.0) {
    throw std::invalid_argument("SparseLu: pivot_threshold must be in (0,1]");
  }
  // Working rows as sorted maps; rows are eliminated in place. Elimination
  // multipliers are attached to the *physical* row (indexed by original row
  // id) so that later pivot swaps reorder them correctly; they are gathered
  // into position order at the end. U rows are final as soon as their
  // pivot step is done, so they go straight into the flat arrays.
  std::vector<std::map<std::size_t, double>> work = a.rows_;
  std::vector<std::size_t> rowidx(n_);  // rowidx[i] = original row used at step i
  for (std::size_t i = 0; i < n_; ++i) rowidx[i] = i;
  std::vector<std::vector<std::pair<std::size_t, double>>> mult(n_);

  u_ptr_.reserve(n_ + 1);
  u_ptr_.push_back(0);
  u_diag_.reserve(n_);

  for (std::size_t k = 0; k < n_; ++k) {
    // Pick pivot row among remaining rows having column k.
    double colmax = 0.0;
    for (std::size_t i = k; i < n_; ++i) {
      const auto& row = work[rowidx[i]];
      const auto it = row.find(k);
      if (it != row.end()) colmax = std::max(colmax, std::abs(it->second));
    }
    if (colmax < 1e-300) throw std::runtime_error("SparseLu: singular matrix");

    std::size_t chosen = n_;
    std::size_t chosen_len = static_cast<std::size_t>(-1);
    for (std::size_t i = k; i < n_; ++i) {
      const auto& row = work[rowidx[i]];
      const auto it = row.find(k);
      if (it == row.end()) continue;
      if (std::abs(it->second) >= pivot_threshold * colmax) {
        // Among acceptable pivots prefer the sparsest row (Markowitz-lite).
        if (row.size() < chosen_len) {
          chosen_len = row.size();
          chosen = i;
        }
      }
    }
    if (chosen == n_) throw std::runtime_error("SparseLu: pivot selection failed");
    std::swap(rowidx[k], rowidx[chosen]);

    auto& prow = work[rowidx[k]];
    const double pivot = prow.at(k);

    // Record U row k: the diagonal apart, then the entries right of it.
    u_diag_.push_back(pivot);
    for (const auto& [c, v] : prow) {
      if (c <= k) continue;
      u_col_.push_back(c);
      u_val_.push_back(v);
    }
    u_ptr_.push_back(u_col_.size());

    // Eliminate column k from all remaining rows.
    for (std::size_t i = k + 1; i < n_; ++i) {
      auto& row = work[rowidx[i]];
      const auto it = row.find(k);
      if (it == row.end()) continue;
      const double f = it->second / pivot;
      row.erase(it);
      mult[rowidx[i]].emplace_back(k, f);
      for (const auto& [c, v] : prow) {
        if (c <= k) continue;
        auto& target = row[c];
        target -= f * v;
        if (std::abs(target) < 1e-300) row.erase(c);
      }
    }
  }
  l_ptr_.reserve(n_ + 1);
  l_ptr_.push_back(0);
  for (std::size_t i = 0; i < n_; ++i) {
    for (const auto& [k, f] : mult[rowidx[i]]) {
      l_col_.push_back(k);
      l_val_.push_back(f);
    }
    l_ptr_.push_back(l_col_.size());
  }
  perm_ = std::move(rowidx);
}

std::vector<double> SparseLu::solve(std::span<const double> b) const {
  std::vector<double> y(n_);
  std::vector<double> x(n_);
  solve_into(b, y, x);
  return x;
}

void SparseLu::solve_into(std::span<const double> b, std::span<double> y,
                          std::span<double> x) const {
  if (b.size() != n_ || y.size() != n_ || x.size() != n_) {
    throw std::invalid_argument("SparseLu::solve: size");
  }
  // Forward: L y = P b (L rows hold multipliers indexed by pivot step).
  for (std::size_t i = 0; i < n_; ++i) {
    double acc = b[perm_[i]];
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

}  // namespace nw::la
