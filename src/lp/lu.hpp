#pragma once
// Sparse LU factorization of a simplex basis, private to mth::lp.
//
// PA = LU with partial pivoting, computed column by column (left-looking):
// column k, scattered into a dense work vector, is updated by the earlier
// elimination steps in ascending order, then pivoted on the largest |a_ik|
// among the rows not yet pivoted, ties going to the lowest current row
// position. Rows swap positions exactly as in a dense in-place elimination
// (row k with the pivot row), multipliers are a_ik * (1.0 / a_kk), and
// a_ij -= l * a_kj runs only where l and a_kj are nonzero, so every stored
// entry of L and U is the value dense Gaussian elimination of the same
// matrix produces, and singularity (largest candidate <= tol) is reported
// at the same step. Storage is O(nnz(L) + nnz(U)); time is O(m^2) scanning
// plus one multiply-subtract per nonzero update.
//
// solve / solve_transpose gather only the stored entries, in the order the
// dense triangular loops accumulate them: L rows and U rows in ascending
// column order, U columns and L columns in ascending row order. The dense
// loops also subtract the products of the zeros they store; those can only
// turn an accumulator of -0.0 into +0.0, and the solves reproduce that too.
// For finite inputs the results therefore match the dense solves bit for
// bit, signs of zero included.

#include <cstddef>
#include <vector>

#include "mth/lp/model.hpp"

namespace mth::lp::detail {

class SparseLu {
 public:
  /// Factorize the n x n matrix whose column k holds the entries
  /// [a.ptr[k], a.ptr[k+1]) of a.idx (row) / a.val; rows must be distinct
  /// within a column and values nonzero. Returns false when the matrix is
  /// numerically singular; singular_step() then names the failing step.
  bool factorize(const SparseView& a, int n, double tol);

  /// b := A^{-1} b.
  void solve(std::vector<double>& b) const;

  /// b := A^{-T} b.
  void solve_transpose(std::vector<double>& b) const;

  /// Elimination step at which the last factorize() found no pivot above
  /// its tolerance, or -1 after a successful factorization.
  int singular_step() const { return singular_step_; }

  /// Stored entries of the last successful factorization: nnz(L) without
  /// its unit diagonal plus nnz(U) with its diagonal.
  std::size_t nnz() const { return lrow_.val.size() + urow_.val.size() + udiag_.size(); }

 private:
  int n_ = 0;
  int singular_step_ = -1;
  std::vector<int> perm_;       // position -> original row
  std::vector<double> udiag_;   // U(k, k)
  // Strictly lower L and strictly upper U, by position, each kept both
  // row-wise and column-wise with ascending indices (the four solve orders).
  SparseView lrow_, lcol_, urow_, ucol_;

  // Scratch, kept across refactorizations and solves.
  std::vector<double> x_;       // column being eliminated, by original row
  std::vector<int> pos_of_;     // original row -> final position
  SparseView lbuild_;           // L by step, original row indices
  mutable std::vector<double> work_;
};

}  // namespace mth::lp::detail
