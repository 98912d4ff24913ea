#include "gp_kernels.hpp"

#include <algorithm>
#include <cmath>

#include "mth/util/error.hpp"

namespace mth::place::detail {

namespace {

double precond(double v, double d) { return d > 1e-12 ? v / d : v; }

}  // namespace

void QpSystem::reset(int n) {
  diag_.assign(static_cast<std::size_t>(n), 0.0);
  rhs_.assign(static_cast<std::size_t>(n), 0.0);
  edges_.clear();
}

void QpSystem::scatter(const double* x, double* y) const {
  for (const Edge& e : edges_) {
    y[e.a] -= e.w * x[e.b];
    y[e.b] -= e.w * x[e.a];
  }
}

int QpSystem::solve(std::vector<double>& xv, int max_iters, double tol) {
  const std::size_t n = diag_.size();
  MTH_ASSERT(xv.size() == n, "place: CG start has the wrong size");
  r_.resize(n);
  z_.resize(n);
  p_.resize(n);
  ap_.resize(n);
  double* x = xv.data();
  double* r = r_.data();
  double* z = z_.data();
  double* p = p_.data();
  double* ap = ap_.data();
  const double* d = diag_.data();
  const double* b = rhs_.data();

  // r = b - A x, z = r / d, p = z, with r.z, r.r and the diagonal of A p.
  for (std::size_t i = 0; i < n; ++i) r[i] = d[i] * x[i];
  scatter(x, r);
  double rz = 0.0, rr = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double ri = b[i] - r[i];
    const double zi = precond(ri, d[i]);
    r[i] = ri;
    z[i] = zi;
    p[i] = zi;
    ap[i] = d[i] * zi;
    rz = rz + ri * zi;
    rr = rr + ri * ri;
  }
  const double r0 = std::sqrt(rr);
  if (r0 < 1e-12) return 0;
  int it = 0;
  while (it < max_iters) {
    ++it;
    scatter(p, ap);
    double pap = 0.0;
    for (std::size_t i = 0; i < n; ++i) pap = pap + p[i] * ap[i];
    if (pap <= 1e-18) break;
    const double alpha = rz / pap;
    double rn = 0.0, rz_new = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      const double ri = r[i] - alpha * ap[i];
      const double zi = precond(ri, d[i]);
      r[i] = ri;
      z[i] = zi;
      rn = rn + ri * ri;
      rz_new = rz_new + ri * zi;
    }
    if (std::sqrt(rn) < tol * r0) break;
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n; ++i) {
      const double pi = z[i] + beta * p[i];
      p[i] = pi;
      ap[i] = d[i] * pi;
    }
  }
  return it;
}

LookAhead::LookAhead(const std::vector<Row>& rows, std::vector<double> widths)
    : width_(std::move(widths)) {
  MTH_ASSERT(!rows.empty(), "place: look-ahead needs rows");
  for (const Row& row : rows) {
    row_y_.push_back(row.y);
    x0_.push_back(static_cast<double>(row.x0));
    x1_.push_back(static_cast<double>(row.x1));
    yc_.push_back(static_cast<double>(row.y_center()));
  }
  max_x1_ = *std::max_element(x1_.begin(), x1_.end());
}

int LookAhead::row_at(Dbu y) const {
  // The last row whose bottom edge is at or below y; below the first row,
  // the first row.
  if (y < row_y_.front()) return 0;
  return static_cast<int>(std::upper_bound(row_y_.begin(), row_y_.end(), y) -
                          row_y_.begin()) - 1;
}

std::int64_t LookAhead::place(const std::vector<double>& xc,
                              const std::vector<double>& yc,
                              std::vector<std::pair<double, double>>& target) {
  const int n = static_cast<int>(width_.size());
  const int nrows = static_cast<int>(x1_.size());
  MTH_ASSERT(xc.size() == width_.size() && yc.size() == width_.size(),
             "place: look-ahead centres have the wrong size");
  keys_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    keys_[static_cast<std::size_t>(i)] = {xc[static_cast<std::size_t>(i)], i};
  }
  std::sort(keys_.begin(), keys_.end(),
            [](const std::pair<double, int>& a, const std::pair<double, int>& b) {
              return a.first < b.first;
            });
  frontier_.assign(x0_.begin(), x0_.end());
  target.resize(static_cast<std::size_t>(n));

  std::int64_t fallbacks = 0;
  const int max_window = std::max(2, nrows);
  for (const auto& [x, idx] : keys_) {
    const double w = width_[static_cast<std::size_t>(idx)];
    const double x_want = x - w / 2.0;
    const double y_want = yc[static_cast<std::size_t>(idx)];
    double best_cost = 1e300;
    int best_row = -1;
    double best_x = 0.0;
    auto scan = [&](int lo, int hi) {
      for (int r = lo; r <= hi; ++r) {
        const auto ru = static_cast<std::size_t>(r);
        const double x0 = std::max(frontier_[ru], x_want);
        if (x0 + w > x1_[ru]) continue;  // row full here
        const double cost = (x0 - x_want) + std::abs(yc_[ru] - y_want);
        if (cost < best_cost) {
          best_cost = cost;
          best_row = r;
          best_x = x0;
        }
      }
    };
    if (x_want + w <= max_x1_) {  // else no row can take the cell
      const int r_near = row_at(static_cast<Dbu>(y_want));
      int lo = r_near + 1, hi = r_near;  // rows scanned so far: none
      for (int window = 2; window <= max_window; window *= 2) {
        const int wlo = std::max(0, r_near - window);
        const int whi = std::min(nrows - 1, r_near + window);
        scan(wlo, lo - 1);
        scan(hi + 1, whi);
        if (best_row >= 0) break;
        lo = wlo;
        hi = whi;
      }
    }
    if (best_row < 0) {
      // Fully congested tail: drop into the least-filled row.
      ++fallbacks;
      best_row = static_cast<int>(std::min_element(frontier_.begin(), frontier_.end()) -
                                  frontier_.begin());
      best_x = frontier_[static_cast<std::size_t>(best_row)];
    }
    frontier_[static_cast<std::size_t>(best_row)] = best_x + w;
    target[static_cast<std::size_t>(idx)] = {best_x + w / 2.0,
                                             yc_[static_cast<std::size_t>(best_row)]};
  }
  return fallbacks;
}

}  // namespace mth::place::detail
