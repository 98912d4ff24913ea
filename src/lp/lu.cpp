#include "lu.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace mth::lp::detail {

namespace {

std::size_t at(int i) { return static_cast<std::size_t>(i); }

bool negative_zero(double v) { return v == 0.0 && std::signbit(v); }

/// out := the transpose of the n-slice compressed matrix `in`; indices
/// within each slice of `out` come out ascending.
void transpose(const SparseView& in, int n, SparseView& out) {
  out.ptr.assign(at(n) + 1, 0);
  for (int t : in.idx) ++out.ptr[at(t) + 1];
  for (int i = 0; i < n; ++i) out.ptr[at(i) + 1] += out.ptr[at(i)];
  out.idx.resize(in.idx.size());
  out.val.resize(in.val.size());
  for (int s = 0; s < n; ++s) {
    for (int e = in.ptr[at(s)]; e < in.ptr[at(s) + 1]; ++e) {
      const std::size_t dst = at(out.ptr[at(in.idx[at(e)])]++);
      out.idx[dst] = s;
      out.val[dst] = in.val[at(e)];
    }
  }
  // The fill pass advanced each slice start to its end; shift them back.
  for (int i = n; i > 0; --i) out.ptr[at(i)] = out.ptr[at(i) - 1];
  out.ptr[0] = 0;
}

void reset(SparseView& v) {
  v.ptr.assign(1, 0);
  v.idx.clear();
  v.val.clear();
}

}  // namespace

bool SparseLu::factorize(const SparseView& a, int n, double tol) {
  n_ = n;
  singular_step_ = -1;
  x_.assign(at(n), 0.0);
  perm_.resize(at(n));  // position -> row, updated by every swap
  for (int i = 0; i < n; ++i) perm_[at(i)] = i;
  udiag_.assign(at(n), 0.0);
  reset(lbuild_);
  reset(ucol_);

  for (int k = 0; k < n; ++k) {
    for (int e = a.ptr[at(k)]; e < a.ptr[at(k) + 1]; ++e) {
      x_[at(a.idx[at(e)])] = a.val[at(e)];
    }
    // Steps in ascending order: once U(s, k) is final, step s subtracts
    // l_rs * U(s, k) from every row r of L column s.
    for (int s = 0; s < k; ++s) {
      double& xs = x_[at(perm_[at(s)])];
      const double u = xs;
      if (u == 0.0) continue;
      xs = 0.0;
      ucol_.idx.push_back(s);
      ucol_.val.push_back(u);
      for (int e = lbuild_.ptr[at(s)]; e < lbuild_.ptr[at(s) + 1]; ++e) {
        x_[at(lbuild_.idx[at(e)])] -= lbuild_.val[at(e)] * u;
      }
    }
    // The pivot: largest |x| among unpivoted rows, lowest position on ties.
    int piv = k;
    double best = std::abs(x_[at(perm_[at(k)])]);
    for (int p = k + 1; p < n; ++p) {
      const double v = std::abs(x_[at(perm_[at(p)])]);
      if (v > best) {
        best = v;
        piv = p;
      }
    }
    if (best <= tol) {
      singular_step_ = k;
      for (int p = k; p < n; ++p) x_[at(perm_[at(p)])] = 0.0;
      return false;
    }
    std::swap(perm_[at(k)], perm_[at(piv)]);
    double& xk = x_[at(perm_[at(k)])];
    udiag_[at(k)] = xk;
    const double inv = 1.0 / xk;
    xk = 0.0;
    for (int p = k + 1; p < n; ++p) {
      const int r = perm_[at(p)];
      if (x_[at(r)] != 0.0) {
        lbuild_.idx.push_back(r);
        lbuild_.val.push_back(x_[at(r)] * inv);
        x_[at(r)] = 0.0;
      }
    }
    lbuild_.ptr.push_back(static_cast<int>(lbuild_.idx.size()));
    ucol_.ptr.push_back(static_cast<int>(ucol_.idx.size()));
  }

  // L rows move with their row's final position; sort L into the row-wise
  // and column-wise orders the solves walk (U columns come out sorted).
  pos_of_.resize(at(n));
  for (int p = 0; p < n; ++p) pos_of_[at(perm_[at(p)])] = p;
  for (int& r : lbuild_.idx) r = pos_of_[at(r)];
  transpose(lbuild_, n, lrow_);
  transpose(lrow_, n, lcol_);
  transpose(ucol_, n, urow_);
  return true;
}

// Each solve below visits the positions in the dense loop's order and
// gathers only stored entries. An accumulator can end at -0.0 only if it
// started there and every product it subtracted was +0.0; the dense loop,
// which also subtracts the products of the zeros it stores, then ends at
// +0.0 iff one of those products is -0.0. `neg` counts the entries solved
// so far whose product with a zero of the dense factor would be -0.0, and
// `stored` the ones among them where this row holds a stored entry instead.

void SparseLu::solve(std::vector<double>& b) const {
  std::vector<double>& s = work_;
  s.resize(at(n_));
  for (int i = 0; i < n_; ++i) s[at(i)] = b[at(perm_[at(i)])];
  // Forward: L y = Pb. Unstored L(i, j) is (+0.0 * (1 / U(j, j))).
  int neg = 0;
  for (int i = 0; i < n_; ++i) {
    const int b0 = lrow_.ptr[at(i)], e0 = lrow_.ptr[at(i) + 1];
    double acc = s[at(i)];
    for (int e = b0; e < e0; ++e) acc -= lrow_.val[at(e)] * s[at(lrow_.idx[at(e)])];
    if (negative_zero(acc)) {
      int stored = 0;
      for (int e = b0; e < e0; ++e) {
        const int j = lrow_.idx[at(e)];
        stored += std::signbit(udiag_[at(j)]) != std::signbit(s[at(j)]);
      }
      if (neg > stored) acc = 0.0;
    }
    s[at(i)] = acc;
    neg += std::signbit(udiag_[at(i)]) != std::signbit(acc);
  }
  // Backward: U x = y. Unstored U(i, j) is +0.0.
  neg = 0;
  for (int i = n_ - 1; i >= 0; --i) {
    const int b0 = urow_.ptr[at(i)], e0 = urow_.ptr[at(i) + 1];
    double acc = s[at(i)];
    for (int e = b0; e < e0; ++e) acc -= urow_.val[at(e)] * s[at(urow_.idx[at(e)])];
    if (negative_zero(acc)) {
      int stored = 0;
      for (int e = b0; e < e0; ++e) stored += std::signbit(s[at(urow_.idx[at(e)])]);
      if (neg > stored) acc = 0.0;
    }
    s[at(i)] = acc / udiag_[at(i)];
    neg += std::signbit(s[at(i)]);
  }
  std::copy(s.begin(), s.end(), b.begin());
}

void SparseLu::solve_transpose(std::vector<double>& b) const {
  std::vector<double>& s = work_;
  s.assign(b.begin(), b.end());
  // U^T y = b (forward). Unstored U(j, i) is +0.0.
  int neg = 0;
  for (int i = 0; i < n_; ++i) {
    const int b0 = ucol_.ptr[at(i)], e0 = ucol_.ptr[at(i) + 1];
    double acc = s[at(i)];
    for (int e = b0; e < e0; ++e) acc -= ucol_.val[at(e)] * s[at(ucol_.idx[at(e)])];
    if (negative_zero(acc)) {
      int stored = 0;
      for (int e = b0; e < e0; ++e) stored += std::signbit(s[at(ucol_.idx[at(e)])]);
      if (neg > stored) acc = 0.0;
    }
    s[at(i)] = acc / udiag_[at(i)];
    neg += std::signbit(s[at(i)]);
  }
  // L^T z = y (backward). Unstored L(j, i) is a zero signed like U(i, i).
  neg = 0;
  for (int i = n_ - 1; i >= 0; --i) {
    const int b0 = lcol_.ptr[at(i)], e0 = lcol_.ptr[at(i) + 1];
    double acc = s[at(i)];
    for (int e = b0; e < e0; ++e) acc -= lcol_.val[at(e)] * s[at(lcol_.idx[at(e)])];
    if (negative_zero(acc)) {
      const bool lsign = std::signbit(udiag_[at(i)]);
      int stored = 0;
      for (int e = b0; e < e0; ++e) {
        stored += std::signbit(s[at(lcol_.idx[at(e)])]) != lsign;
      }
      const int differ = lsign ? (n_ - 1 - i) - neg : neg;
      if (differ > stored) acc = 0.0;
    }
    s[at(i)] = acc;
    neg += std::signbit(acc);
  }
  for (int i = 0; i < n_; ++i) b[at(perm_[at(i)])] = s[at(i)];
}

}  // namespace mth::lp::detail
