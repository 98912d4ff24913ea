#include "mth/place/placer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "gp_kernels.hpp"
#include "mth/trace/trace.hpp"
#include "mth/util/error.hpp"
#include "mth/util/log.hpp"
#include "mth/util/rng.hpp"

namespace mth::place {
namespace {

/// bin_rows sizes the density bins: a non-positive value made every
/// density_overflow call allocate one-DBU bins, and a NaN one was cast to Dbu.
void check_bin_rows(double bin_rows) {
  MTH_ASSERT(std::isfinite(bin_rows) && bin_rows > 0.0,
             "place: bin_rows must be finite and positive");
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
  check_bin_rows(bin_rows);
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
  MTH_ASSERT(std::isfinite(opt.anchor_weight) && opt.anchor_weight >= 0.0,
             "place: anchor_weight must be finite and non-negative");
  MTH_ASSERT(std::isfinite(opt.anchor_growth) && opt.anchor_growth >= 0.0,
             "place: anchor_growth must be finite and non-negative");
  MTH_ASSERT(opt.cg_max_iterations >= 0, "place: cg_max_iterations must be non-negative");
  MTH_ASSERT(std::isfinite(opt.cg_tolerance) && opt.cg_tolerance >= 0.0,
             "place: cg_tolerance must be finite and non-negative");
  MTH_ASSERT(std::isfinite(opt.target_overflow) && opt.target_overflow >= 0.0,
             "place: target_overflow must be finite and non-negative");
  check_bin_rows(opt.bin_rows);
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

  // Built once per call: the B2B nets, the look-ahead's row and width
  // arrays, and the storage of the per-axis system.
  detail::B2bNets nets(design);
  std::vector<double> widths(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    widths[static_cast<std::size_t>(i)] = static_cast<double>(design.master_of(i).width);
  }
  detail::LookAhead lookahead(design.floorplan.rows(), std::move(widths));
  detail::QpSystem sys;

  // The last look-ahead targets, which anchor the next QP once there are any.
  std::vector<std::pair<double, double>> lal;
  double anchor_w = 0.0;
  std::int64_t qp_solves = 0, cg_iterations = 0, lal_fallbacks = 0;

  auto solve_axis = [&](bool is_x) {
    std::vector<double>& v = is_x ? xc : yc;
    {
      MTH_SPAN("place/b2b");
      sys.reset(n);
      nets.assemble(sys, v, is_x);
      if (!lal.empty()) {
        for (int i = 0; i < n; ++i) {
          sys.add_fixed(i, anchor_w,
                        is_x ? lal[static_cast<std::size_t>(i)].first
                             : lal[static_cast<std::size_t>(i)].second);
        }
      }
    }
    ++qp_solves;
    {
      MTH_SPAN("place/cg");
      cg_iterations += sys.solve(v, opt.cg_max_iterations, opt.cg_tolerance);
    }
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

  std::vector<std::pair<double, double>> qp(static_cast<std::size_t>(n));
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    solve_axis(true);
    solve_axis(false);
    {
      MTH_SPAN("place/lookahead");
      lal_fallbacks += lookahead.place(xc, yc, lal);
    }
    anchor_w = iter == 0 ? opt.anchor_weight : anchor_w * opt.anchor_growth;

    // Overflow check on the QP positions.
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
  MTH_COUNT("place/qp_solves", qp_solves);
  MTH_COUNT("place/cg_iterations", cg_iterations);
  MTH_COUNT("place/lal_fallbacks", lal_fallbacks);
}

}  // namespace mth::place
