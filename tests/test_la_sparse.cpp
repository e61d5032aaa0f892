// Sparse assembly, CSR, sparse LU (vs dense reference).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "la/dense.hpp"
#include "la/sparse.hpp"
#include "spice/reference.hpp"
#include "util/rng.hpp"

namespace nw::la {
namespace {

TEST(TripletBuilder, StampsAccumulate) {
  TripletBuilder b(3);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.0);
  b.add(1, 2, -0.5);
  EXPECT_DOUBLE_EQ(b.get(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(b.get(1, 2), -0.5);
  EXPECT_DOUBLE_EQ(b.get(2, 2), 0.0);
  EXPECT_EQ(b.nonzeros(), 2u);
  EXPECT_THROW(b.add(3, 0, 1.0), std::out_of_range);
}

TEST(SparseMatrix, MultiplyMatchesDense) {
  Rng rng(7);
  const std::size_t n = 12;
  TripletBuilder b(n);
  Matrix dense(n, n);
  for (int k = 0; k < 40; ++k) {
    const auto r = rng.below(n);
    const auto c = rng.below(n);
    const double v = rng.uniform(-2.0, 2.0);
    b.add(r, c, v);
    dense(r, c) += v;
  }
  const SparseMatrix sp(b);
  Vector x(n);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  const Vector y_sp = sp.multiply(x);
  const Vector y_dn = dense.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y_sp[i], y_dn[i], 1e-12);
}

TEST(SparseMatrix, GetEntry) {
  TripletBuilder b(3);
  b.add(1, 2, 5.0);
  const SparseMatrix sp(b);
  EXPECT_DOUBLE_EQ(sp.get(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(sp.get(0, 0), 0.0);
  EXPECT_EQ(sp.nonzeros(), 1u);
}

TEST(SparseLu, SolvesSmallSystem) {
  TripletBuilder b(2);
  b.add(0, 0, 2.0);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  b.add(1, 1, 3.0);
  const SparseLu lu(b);
  const auto x = lu.solve(std::vector<double>{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SparseLu, PivotsOnZeroDiagonal) {
  TripletBuilder b(2);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  const SparseLu lu(b);
  const auto x = lu.solve(std::vector<double>{3.0, 4.0});
  EXPECT_NEAR(x[0], 4.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SparseLu, SingularThrows) {
  TripletBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 2.0);
  b.add(1, 1, 4.0);
  EXPECT_THROW(SparseLu{b}, std::runtime_error);
}

TEST(SparseLu, BadThresholdThrows) {
  TripletBuilder b(1);
  b.add(0, 0, 1.0);
  EXPECT_THROW(SparseLu(b, 0.0), std::invalid_argument);
  EXPECT_THROW(SparseLu(b, 1.5), std::invalid_argument);
}

/// Property sweep: sparse LU matches dense LU on random sparse systems of
/// varying size, including MNA-like indefinite ones.
class SparseLuRandom : public ::testing::TestWithParam<int> {};

TEST_P(SparseLuRandom, MatchesDense) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  const std::size_t n = 3 + rng.below(30);
  TripletBuilder b(n);
  Matrix dense(n, n);
  // Sparse random entries + strong-ish diagonal, then knock a few diagonal
  // entries to zero to force pivoting.
  for (std::size_t i = 0; i < n; ++i) {
    const double d = rng.uniform(1.0, 4.0);
    b.add(i, i, d);
    dense(i, i) += d;
    for (int k = 0; k < 3; ++k) {
      const auto j = rng.below(n);
      if (j == i) continue;
      const double v = rng.uniform(-1.0, 1.0);
      b.add(i, j, v);
      dense(i, j) += v;
    }
  }
  // Off-diagonal swap rows to create structural pivoting pressure.
  Vector x_true(n);
  for (auto& v : x_true) v = rng.uniform(-2.0, 2.0);
  const Vector rhs = dense.multiply(x_true);
  const SparseLu slu(b);
  const auto x = slu.solve(rhs);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-7);

  // The in-place solve, the allocating wrapper and the nested-row reference
  // factorization agree bit for bit, also with b aliasing x.
  std::vector<double> y(n);
  std::vector<double> x_into(n);
  slu.solve_into(rhs, y, x_into);
  const auto x_ref = ref::NestedLu(b).solve(rhs);
  std::vector<double> x_alias(rhs.begin(), rhs.end());
  slu.solve_into(x_alias, y, x_alias);
  EXPECT_EQ(std::memcmp(x_into.data(), x.data(), n * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(x_ref.data(), x.data(), n * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(x_alias.data(), x.data(), n * sizeof(double)), 0);
  EXPECT_THROW(slu.solve_into(std::vector<double>(n + 1), y, x_into), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseLuRandom, ::testing::Range(0, 25));

TEST(SparseLu, RepeatedSolves) {
  // Transient simulation re-solves with many right-hand sides.
  TripletBuilder b(3);
  b.add(0, 0, 4.0);
  b.add(1, 1, 5.0);
  b.add(2, 2, 6.0);
  b.add(0, 1, 1.0);
  b.add(1, 2, 1.0);
  const SparseLu lu(b);
  for (int k = 0; k < 5; ++k) {
    const double s = static_cast<double>(k);
    const auto x = lu.solve(std::vector<double>{4 * s + s, 5 * s + s, 6 * s});
    EXPECT_NEAR(x[2], s, 1e-12);
  }
}

}  // namespace
}  // namespace nw::la
