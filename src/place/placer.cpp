#include "mth/place/placer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "mth/util/error.hpp"
#include "mth/util/log.hpp"
#include "mth/util/rng.hpp"

namespace mth::place {
namespace {

/// Sparse symmetric system: diag + undirected weighted edges. Solved per axis.
struct QpSystem {
  int n = 0;
  std::vector<double> diag;
  std::vector<double> rhs;
  struct Edge {
    int a, b;
    double w;
  };
  std::vector<Edge> edges;

  explicit QpSystem(int n_) : n(n_), diag(static_cast<std::size_t>(n_), 0.0),
                              rhs(static_cast<std::size_t>(n_), 0.0) {}

  void add_edge(int a, int b, double w) {
    diag[static_cast<std::size_t>(a)] += w;
    diag[static_cast<std::size_t>(b)] += w;
    edges.push_back({a, b, w});
  }
  void add_fixed(int a, double w, double pos) {
    diag[static_cast<std::size_t>(a)] += w;
    rhs[static_cast<std::size_t>(a)] += w * pos;
  }

  void matvec(const std::vector<double>& x, std::vector<double>& y) const {
    for (int i = 0; i < n; ++i) {
      y[static_cast<std::size_t>(i)] = diag[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(i)];
    }
    for (const Edge& e : edges) {
      y[static_cast<std::size_t>(e.a)] -= e.w * x[static_cast<std::size_t>(e.b)];
      y[static_cast<std::size_t>(e.b)] -= e.w * x[static_cast<std::size_t>(e.a)];
    }
  }

  /// Jacobi-preconditioned CG; x holds the warm start on entry.
  void solve(std::vector<double>& x, int max_iters, double tol) const {
    std::vector<double> r(static_cast<std::size_t>(n)), z(static_cast<std::size_t>(n)),
        p(static_cast<std::size_t>(n)), ap(static_cast<std::size_t>(n));
    matvec(x, r);
    for (int i = 0; i < n; ++i) {
      r[static_cast<std::size_t>(i)] = rhs[static_cast<std::size_t>(i)] - r[static_cast<std::size_t>(i)];
    }
    auto precond = [&](const std::vector<double>& v, std::vector<double>& out) {
      for (int i = 0; i < n; ++i) {
        const double d = diag[static_cast<std::size_t>(i)];
        out[static_cast<std::size_t>(i)] = d > 1e-12 ? v[static_cast<std::size_t>(i)] / d
                                                     : v[static_cast<std::size_t>(i)];
      }
    };
    precond(r, z);
    p = z;
    double rz = std::inner_product(r.begin(), r.end(), z.begin(), 0.0);
    const double r0 = std::sqrt(std::inner_product(r.begin(), r.end(), r.begin(), 0.0));
    if (r0 < 1e-12) return;
    for (int it = 0; it < max_iters; ++it) {
      matvec(p, ap);
      const double pap = std::inner_product(p.begin(), p.end(), ap.begin(), 0.0);
      if (pap <= 1e-18) break;
      const double alpha = rz / pap;
      for (int i = 0; i < n; ++i) {
        x[static_cast<std::size_t>(i)] += alpha * p[static_cast<std::size_t>(i)];
        r[static_cast<std::size_t>(i)] -= alpha * ap[static_cast<std::size_t>(i)];
      }
      const double rn = std::sqrt(std::inner_product(r.begin(), r.end(), r.begin(), 0.0));
      if (rn < tol * r0) break;
      precond(r, z);
      const double rz_new = std::inner_product(r.begin(), r.end(), z.begin(), 0.0);
      const double beta = rz_new / rz;
      rz = rz_new;
      for (int i = 0; i < n; ++i) {
        p[static_cast<std::size_t>(i)] = z[static_cast<std::size_t>(i)] + beta * p[static_cast<std::size_t>(i)];
      }
    }
  }
};

struct PinCoord {
  int cell = -1;  ///< -1 == fixed (port)
  double x = 0.0;
};

/// Add one axis of a net to the system under the B2B model.
void add_net_b2b(QpSystem& sys, std::vector<PinCoord>& pins) {
  const int k = static_cast<int>(pins.size());
  if (k < 2) return;
  int imin = 0, imax = 0;
  for (int i = 1; i < k; ++i) {
    if (pins[static_cast<std::size_t>(i)].x < pins[static_cast<std::size_t>(imin)].x) imin = i;
    if (pins[static_cast<std::size_t>(i)].x > pins[static_cast<std::size_t>(imax)].x) imax = i;
  }
  const double scale = 2.0 / (k - 1);
  auto connect = [&](int i, int j) {
    if (i == j) return;
    const PinCoord& a = pins[static_cast<std::size_t>(i)];
    const PinCoord& b = pins[static_cast<std::size_t>(j)];
    if (a.cell < 0 && b.cell < 0) return;
    const double dist = std::max(std::abs(a.x - b.x), 1.0);  // 1 DBU floor
    const double w = scale / dist;
    if (a.cell >= 0 && b.cell >= 0) {
      sys.add_edge(a.cell, b.cell, w);
    } else if (a.cell >= 0) {
      sys.add_fixed(a.cell, w, b.x);
    } else {
      sys.add_fixed(b.cell, w, a.x);
    }
  };
  for (int i = 0; i < k; ++i) {
    if (i != imin) connect(i, imin);
    if (i != imax && imin != imax) connect(i, imax);
  }
}

/// Tetris-style look-ahead legalization on cell centers; returns target
/// centers. Requires uniform cell heights == row height (mLEF space).
std::vector<std::pair<double, double>> tetris_targets(
    const Design& design, const std::vector<double>& xc,
    const std::vector<double>& yc) {
  const Floorplan& fp = design.floorplan;
  const int n = design.netlist.num_instances();
  const int nrows = fp.num_rows();

  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return xc[static_cast<std::size_t>(a)] < xc[static_cast<std::size_t>(b)];
  });

  std::vector<double> frontier(static_cast<std::size_t>(nrows));
  for (int r = 0; r < nrows; ++r) {
    frontier[static_cast<std::size_t>(r)] = static_cast<double>(fp.row(r).x0);
  }

  std::vector<std::pair<double, double>> target(static_cast<std::size_t>(n));
  for (int idx : order) {
    const double w = static_cast<double>(design.master_of(idx).width);
    const double x_want = xc[static_cast<std::size_t>(idx)] - w / 2.0;
    const double y_want = yc[static_cast<std::size_t>(idx)];
    const int r_near = fp.row_at_y(static_cast<Dbu>(y_want));
    double best_cost = 1e300;
    int best_row = -1;
    double best_x = 0.0;
    for (int window = 2; window <= std::max(2, nrows); window *= 2) {
      for (int r = std::max(0, r_near - window);
           r <= std::min(nrows - 1, r_near + window); ++r) {
        const Row& row = fp.row(r);
        const double x0 = std::max(frontier[static_cast<std::size_t>(r)], x_want);
        if (x0 + w > static_cast<double>(row.x1)) continue;  // row full here
        const double cost = (x0 - x_want) +
                            std::abs(static_cast<double>(row.y_center()) - y_want);
        if (cost < best_cost) {
          best_cost = cost;
          best_row = r;
          best_x = x0;
        }
      }
      if (best_row >= 0) break;
    }
    if (best_row < 0) {
      // Fully congested tail: drop into the least-filled row.
      best_row = 0;
      for (int r = 1; r < nrows; ++r) {
        if (frontier[static_cast<std::size_t>(r)] < frontier[static_cast<std::size_t>(best_row)]) {
          best_row = r;
        }
      }
      best_x = frontier[static_cast<std::size_t>(best_row)];
    }
    frontier[static_cast<std::size_t>(best_row)] = best_x + w;
    target[static_cast<std::size_t>(idx)] = {
        best_x + w / 2.0, static_cast<double>(fp.row(best_row).y_center())};
  }
  return target;
}

}  // namespace

void build_uniform_floorplan(Design& design, double utilization,
                             double aspect_ratio) {
  MTH_ASSERT(utilization > 0.05 && utilization <= 1.0, "floorplan: bad utilization");
  MTH_ASSERT(aspect_ratio > 0.0, "floorplan: bad aspect ratio");
  MTH_ASSERT(design.netlist.num_instances() > 0, "floorplan: empty design");

  const Tech& tech = design.library->tech();
  // mLEF space: all masters share one height.
  const Dbu h = design.master_of(0).height;
  for (InstId i = 0; i < design.netlist.num_instances(); ++i) {
    MTH_ASSERT(design.master_of(i).height == h,
               "floorplan: non-uniform heights; call in mLEF space");
  }

  const double area = static_cast<double>(design.total_cell_area()) / utilization;
  const double height_f = std::sqrt(area * aspect_ratio);
  int num_pairs = std::max(1, static_cast<int>(std::llround(height_f / (2.0 * h))));
  // Width chosen to hit the utilization target exactly given the pair count.
  double width_f = area / (static_cast<double>(num_pairs) * 2.0 * h);
  Dbu width = snap_up(static_cast<Dbu>(std::llround(width_f)), tech.site_width);
  // A row must fit the widest cell.
  Dbu max_w = 0;
  for (InstId i = 0; i < design.netlist.num_instances(); ++i) {
    max_w = std::max(max_w, design.master_of(i).width);
  }
  width = std::max(width, max_w);

  design.floorplan = Floorplan::make_uniform(
      Rect{{0, 0}, {width, static_cast<Dbu>(num_pairs) * 2 * h}}, num_pairs, h,
      design.master_of(0).track_height, tech.site_width);

  // Ports: evenly spaced around the core boundary, clockwise from (0,0).
  const Rect core = design.floorplan.core();
  const double perim = 2.0 * static_cast<double>(core.width() + core.height());
  const int np = design.netlist.num_ports();
  for (PortId p = 0; p < np; ++p) {
    double t = perim * (static_cast<double>(p) + 0.5) / std::max(1, np);
    Point pos;
    const double w2 = static_cast<double>(core.width());
    const double h2 = static_cast<double>(core.height());
    if (t < w2) {
      pos = {core.lo.x + static_cast<Dbu>(t), core.lo.y};
    } else if (t < w2 + h2) {
      pos = {core.hi.x, core.lo.y + static_cast<Dbu>(t - w2)};
    } else if (t < 2 * w2 + h2) {
      pos = {core.hi.x - static_cast<Dbu>(t - w2 - h2), core.hi.y};
    } else {
      pos = {core.lo.x, core.hi.y - static_cast<Dbu>(t - 2 * w2 - h2)};
    }
    design.netlist.port(p).pos = pos;
  }
}

double density_overflow(const Design& design, double bin_rows) {
  const Floorplan& fp = design.floorplan;
  const Dbu bin_h = std::max<Dbu>(
      1, static_cast<Dbu>(bin_rows * 2.0 * static_cast<double>(fp.row(0).height)));
  const Dbu bin_w = bin_h;
  const int nx = std::max<int>(1, static_cast<int>(fp.core().width() / bin_w));
  const int ny = std::max<int>(1, static_cast<int>(fp.core().height() / bin_h));
  std::vector<double> usage(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny), 0.0);

  double total = 0.0;
  for (InstId i = 0; i < design.netlist.num_instances(); ++i) {
    const Instance& inst = design.netlist.instance(i);
    const CellMaster& m = design.master_of(i);
    const double a = static_cast<double>(m.area());
    total += a;
    const Dbu cx = inst.pos.x + m.width / 2;
    const Dbu cy = inst.pos.y + m.height / 2;
    const int bx = std::clamp(static_cast<int>((cx - fp.core().lo.x) / bin_w), 0, nx - 1);
    const int by = std::clamp(static_cast<int>((cy - fp.core().lo.y) / bin_h), 0, ny - 1);
    usage[static_cast<std::size_t>(by) * static_cast<std::size_t>(nx) +
          static_cast<std::size_t>(bx)] += a;
  }
  const double cap =
      static_cast<double>(fp.core().area()) / (static_cast<double>(nx) * ny);
  double overflow = 0.0;
  for (double u : usage) overflow += std::max(0.0, u - cap);
  return total > 0.0 ? overflow / total : 0.0;
}

void global_place(Design& design, const GlobalPlaceOptions& opt) {
  MTH_ASSERT(opt.max_iterations >= 1, "place: max_iterations must be at least 1");
  design.check();
  MTH_ASSERT(!design.floorplan.rows().empty(), "place: floorplan missing");
  const int n = design.netlist.num_instances();
  const Rect core = design.floorplan.core();
  Rng rng(opt.seed);

  // State: cell centers.
  std::vector<double> xc(static_cast<std::size_t>(n)), yc(static_cast<std::size_t>(n));
  const double cx0 = static_cast<double>(core.lo.x + core.hi.x) / 2.0;
  const double cy0 = static_cast<double>(core.lo.y + core.hi.y) / 2.0;
  const double jx = static_cast<double>(core.width()) * 0.12;
  const double jy = static_cast<double>(core.height()) * 0.12;
  for (int i = 0; i < n; ++i) {
    xc[static_cast<std::size_t>(i)] = cx0 + jx * rng.normal();
    yc[static_cast<std::size_t>(i)] = cy0 + jy * rng.normal();
  }

  std::vector<std::pair<double, double>> anchors;
  double anchor_w = 0.0;

  auto solve_axis = [&](bool is_x) {
    QpSystem sys(n);
    std::vector<PinCoord> pins;
    for (NetId nid = 0; nid < design.netlist.num_nets(); ++nid) {
      const Net& net = design.netlist.net(nid);
      if (net.is_clock || net.degree() < 2) continue;
      pins.clear();
      for (const PinRef& ref : net.pins) {
        if (ref.is_port()) {
          const Point p = design.netlist.port(ref.pin).pos;
          pins.push_back({-1, static_cast<double>(is_x ? p.x : p.y)});
        } else {
          pins.push_back({ref.inst, is_x ? xc[static_cast<std::size_t>(ref.inst)]
                                         : yc[static_cast<std::size_t>(ref.inst)]});
        }
      }
      add_net_b2b(sys, pins);
    }
    if (!anchors.empty()) {
      for (int i = 0; i < n; ++i) {
        sys.add_fixed(i, anchor_w,
                      is_x ? anchors[static_cast<std::size_t>(i)].first
                           : anchors[static_cast<std::size_t>(i)].second);
      }
    }
    std::vector<double>& v = is_x ? xc : yc;
    sys.solve(v, opt.cg_max_iterations, opt.cg_tolerance);
    // Clamp into the core.
    const double lo = static_cast<double>(is_x ? core.lo.x : core.lo.y);
    const double hi = static_cast<double>(is_x ? core.hi.x : core.hi.y);
    for (double& c : v) c = std::clamp(c, lo + 1.0, hi - 1.0);
  };

  auto commit = [&](const std::vector<std::pair<double, double>>& centers) {
    for (int i = 0; i < n; ++i) {
      const CellMaster& m = design.master_of(i);
      Dbu x = static_cast<Dbu>(std::llround(centers[static_cast<std::size_t>(i)].first -
                                            static_cast<double>(m.width) / 2.0));
      Dbu y = static_cast<Dbu>(std::llround(centers[static_cast<std::size_t>(i)].second -
                                            static_cast<double>(m.height) / 2.0));
      x = std::clamp(x, core.lo.x, core.hi.x - m.width);
      y = std::clamp(y, core.lo.y, core.hi.y - m.height);
      design.netlist.instance(i).pos = {x, y};
    }
  };

  std::vector<std::pair<double, double>> lal;
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    solve_axis(true);
    solve_axis(false);
    lal = tetris_targets(design, xc, yc);
    anchors = lal;
    anchor_w = iter == 0 ? opt.anchor_weight : anchor_w * opt.anchor_growth;

    // Overflow check on the QP positions.
    std::vector<std::pair<double, double>> qp(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      qp[static_cast<std::size_t>(i)] = {xc[static_cast<std::size_t>(i)],
                                         yc[static_cast<std::size_t>(i)]};
    }
    commit(qp);
    const double ov = density_overflow(design, opt.bin_rows);
    MTH_DEBUG << "gp iter " << iter << " overflow " << ov;
    if (ov < opt.target_overflow) break;
  }
  // Final answer: the last look-ahead (spread) positions — nearly legal, the
  // detailed legalizer only needs small moves.
  commit(lal);
}

}  // namespace mth::place
