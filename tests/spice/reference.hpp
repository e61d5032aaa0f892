// Reference transient engine: the plain allocating step loop and the
// nested-vector sparse LU the production engine was derived from. No
// production code uses them; they are the oracle the flat, in-place
// engine (spice::simulate, la::SparseLu) must match bit for bit, because
// it performs the same floating-point operations in the same order.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "la/sparse.hpp"
#include "spice/circuit.hpp"
#include "spice/transient.hpp"

namespace nw::ref {

/// Sparse LU with threshold partial pivoting whose factors are stored as
/// nested (column, value) rows; solve() allocates its work vectors.
class NestedLu {
 public:
  explicit NestedLu(const la::TripletBuilder& a, double pivot_threshold = 0.1);

  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

 private:
  std::size_t n_;
  // L (strictly lower, unit diagonal implied) and U (upper incl. diagonal).
  std::vector<std::vector<std::pair<std::size_t, double>>> lower_;
  std::vector<std::vector<std::pair<std::size_t, double>>> upper_;
  std::vector<std::size_t> perm_;  // row permutation: use row perm_[i] as pivot i
};

/// Transient simulation, one allocating multiply-then-solve per step,
/// recording every node.
[[nodiscard]] spice::TransientResult simulate(const spice::Circuit& ckt,
                                              const spice::TranOptions& opt);

}  // namespace nw::ref
