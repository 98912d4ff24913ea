#include "gp_kernels.hpp"

#include <algorithm>
#include <cmath>

#include "mth/util/error.hpp"
#include "mth/util/simd.hpp"

namespace mth::place::detail {

namespace {

/// The Jacobi preconditioner leaves rows with a diagonal at or below this.
constexpr double kDiagFloor = 1e-12;

double precond(double v, double d) { return d > kDiagFloor ? v / d : v; }

}  // namespace

void QpSystem::reset(int n) {
  diag_.assign(static_cast<std::size_t>(n), 0.0);
  rhs_.assign(static_cast<std::size_t>(n), 0.0);
  edges_.clear();
}

void QpSystem::scatter(const double* x, double* y) const {
  const Edge* e = edges_.data();
  const std::size_t m = edges_.size();
  std::size_t k = 0;
  for (; k + 1 < m; k += 2) {
    const Edge& e0 = e[k];
    const Edge& e1 = e[k + 1];
    const double t0 = e0.w * x[e0.b];
    const double t1 = e0.w * x[e0.a];
    const double t2 = e1.w * x[e1.b];
    const double t3 = e1.w * x[e1.a];
    y[e0.a] -= t0;
    y[e0.b] -= t1;
    y[e1.a] -= t2;
    y[e1.b] -= t3;
  }
  if (k < m) {
    y[e[k].a] -= e[k].w * x[e[k].b];
    y[e[k].b] -= e[k].w * x[e[k].a];
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
  const simd::Kernels& kern = simd::kernels();

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
    kern.cg_update(p, ap, d, n, alpha, kDiagFloor, x, r, z, &rn, &rz_new);
    if (std::sqrt(rn) < tol * r0) break;
    const double beta = rz_new / rz;
    rz = rz_new;
    kern.cg_direction(z, d, n, beta, p, ap);
  }
  return it;
}

B2bNets::B2bNets(int num_cells) : num_cells_(num_cells), net_begin_{0} {
  MTH_ASSERT(num_cells >= 0, "place: negative cell count");
  for (std::vector<double>& c : coord_) c.assign(static_cast<std::size_t>(num_cells), 0.0);
}

B2bNets::B2bNets(const Design& design) : B2bNets(design.netlist.num_instances()) {
  const db::PinTable table(design);
  auto counted = [&table](NetId nid) {
    return !table.is_clock(nid) && table.pins(nid).size() >= 2;
  };
  std::size_t nets = 0, pins = 0, ports = 0;
  for (NetId nid = 0; nid < table.num_nets(); ++nid) {
    if (!counted(nid)) continue;
    ++nets;
    for (const db::PinTable::Pin& pin : table.pins(nid)) {
      ++pins;
      if (pin.inst == kInvalidId) ++ports;
    }
  }
  net_begin_.reserve(nets + 1);
  scale_.reserve(nets);
  pins_.reserve(pins);
  for (std::vector<double>& c : coord_) c.reserve(c.size() + ports);
  for (NetId nid = 0; nid < table.num_nets(); ++nid) {
    if (counted(nid)) add_net(table.pins(nid));
  }
}

void B2bNets::add_net(std::span<const db::PinTable::Pin> pins) {
  MTH_ASSERT(pins.size() >= 2, "place: a B2B net needs two pins");
  for (const db::PinTable::Pin& pin : pins) {
    if (pin.inst == kInvalidId) {
      pins_.push_back({-1, static_cast<int>(coord_[0].size())});
      coord_[0].push_back(static_cast<double>(pin.offset.x));
      coord_[1].push_back(static_cast<double>(pin.offset.y));
    } else {
      MTH_ASSERT(pin.inst >= 0 && pin.inst < num_cells_, "place: B2B pin of no cell");
      pins_.push_back({pin.inst, pin.inst});
    }
  }
  net_begin_.push_back(static_cast<std::uint32_t>(pins_.size()));
  scale_.push_back(2.0 / static_cast<double>(pins.size() - 1));
}

void B2bNets::assemble(QpSystem& sys, const std::vector<double>& centres, bool is_x) {
  MTH_ASSERT(centres.size() == static_cast<std::size_t>(num_cells_),
             "place: B2B centres have the wrong size");
  std::vector<double>& coord = coord_[is_x ? 0 : 1];
  std::copy(centres.begin(), centres.end(), coord.begin());
  const double* c = coord.data();
  for (std::size_t net = 0; net < scale_.size(); ++net) {
    const Pin* pins = pins_.data() + net_begin_[net];
    const int k = static_cast<int>(net_begin_[net + 1] - net_begin_[net]);
    // First minimum and first maximum, selected without branches.
    int imin = 0, imax = 0;
    double vmin = c[pins[0].slot], vmax = vmin;
    for (int i = 1; i < k; ++i) {
      const double v = c[pins[i].slot];
      const bool lower = v < vmin;
      const bool higher = v > vmax;
      imin = lower ? i : imin;
      vmin = lower ? v : vmin;
      imax = higher ? i : imax;
      vmax = higher ? v : vmax;
    }
    const double scale = scale_[net];
    auto connect = [&sys, scale](const Pin& a, double ax, const Pin& b, double bx) {
      if (a.cell < 0 && b.cell < 0) return;
      const double dist = std::max(std::abs(ax - bx), 1.0);  // 1 DBU floor
      const double w = scale / dist;
      if (a.cell >= 0 && b.cell >= 0) {
        sys.add_edge(a.cell, b.cell, w);
      } else if (a.cell >= 0) {
        sys.add_fixed(a.cell, w, bx);
      } else {
        sys.add_fixed(b.cell, w, ax);
      }
    };
    const Pin& lo = pins[imin];
    const Pin& hi = pins[imax];
    for (int i = 0; i < k; ++i) {
      const double v = c[pins[i].slot];
      if (i != imin) connect(pins[i], v, lo, vmin);
      if (i != imax && imin != imax) connect(pins[i], v, hi, vmax);
    }
  }
}

LookAhead::LookAhead(const std::vector<Row>& rows, std::vector<double> widths)
    : width_(std::move(widths)) {
  MTH_ASSERT(!rows.empty(), "place: look-ahead needs rows");
  y0_ = rows.front().y;
  h_ = rows.front().height;
  MTH_ASSERT(h_ > 0, "place: look-ahead rows need a positive height");
  top_ = static_cast<Dbu>(rows.size()) - 1;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    MTH_ASSERT(row.height == h_ && row.y == y0_ + static_cast<Dbu>(r) * h_,
               "place: look-ahead rows must be gap-free and of one height");
    x0_.push_back(static_cast<double>(row.x0));
    x1_.push_back(static_cast<double>(row.x1));
    yc_.push_back(static_cast<double>(row.y_center()));
  }
  max_x1_ = *std::max_element(x1_.begin(), x1_.end());
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
