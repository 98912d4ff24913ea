// Global placement tests: floorplan construction, port pinning, density
// spreading, wirelength sanity vs random placement, placements pinned to
// recorded hashes, and the placer's kernels (B2B assembly, CG solve,
// look-ahead) against the code they replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gp_kernels.hpp"
#include "mth/db/metrics.hpp"
#include "mth/db/mlef.hpp"
#include "mth/db/pintable.hpp"
#include "mth/legal/abacus.hpp"
#include "mth/liberty/asap7.hpp"
#include "mth/place/placer.hpp"
#include "mth/synth/generator.hpp"
#include "mth/trace/collector.hpp"
#include "mth/trace/trace.hpp"
#include "mth/util/error.hpp"
#include "mth/util/rng.hpp"

namespace mth::place {
namespace {

Design prepared_mlef_design(const char* name, double scale, double util = 0.6,
                            std::uint64_t seed = synth::GeneratorOptions{}.seed) {
  auto lib = liberty::library_ref();
  synth::GeneratorOptions gen;
  gen.scale = scale;
  gen.seed = seed;
  Design d = synth::generate_testcase(synth::spec_by_name(name), lib, gen).design;
  double minority_area = 0, total = 0;
  for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
    const double a = static_cast<double>(d.master_of(i).area());
    total += a;
    if (d.is_minority(i)) minority_area += a;
  }
  static std::vector<std::shared_ptr<MlefTransform>> keep_alive;
  keep_alive.push_back(std::make_shared<MlefTransform>(lib, minority_area / total));
  keep_alive.back()->to_mlef(d);
  build_uniform_floorplan(d, util, 1.0);
  return d;
}

TEST(Floorplanner, UtilizationAndAspect) {
  Design d = prepared_mlef_design("aes_360", 0.05);
  const double cell_area = static_cast<double>(d.total_cell_area());
  const double core_area = static_cast<double>(d.floorplan.core().area());
  EXPECT_NEAR(cell_area / core_area, 0.60, 0.05);
  const double ar = static_cast<double>(d.floorplan.core().height()) /
                    static_cast<double>(d.floorplan.core().width());
  EXPECT_NEAR(ar, 1.0, 0.25);
  EXPECT_EQ(d.floorplan.num_rows() % 2, 0);
}

TEST(Floorplanner, PortsOnBoundary) {
  Design d = prepared_mlef_design("aes_360", 0.05);
  const Rect core = d.floorplan.core();
  for (PortId p = 0; p < d.netlist.num_ports(); ++p) {
    const Point pos = d.netlist.port(p).pos;
    const bool on_edge = pos.x == core.lo.x || pos.x == core.hi.x ||
                         pos.y == core.lo.y || pos.y == core.hi.y;
    EXPECT_TRUE(on_edge) << d.netlist.port(p).name << " at " << pos.x << ','
                         << pos.y;
  }
}

TEST(Floorplanner, RowsFitWidestCell) {
  Design d = prepared_mlef_design("nova_500", 0.01);
  Dbu max_w = 0;
  for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
    max_w = std::max(max_w, d.master_of(i).width);
  }
  EXPECT_GE(d.floorplan.core().width(), max_w);
}

TEST(Floorplanner, RejectsNonMlefSpace) {
  auto lib = liberty::library_ref();
  synth::GeneratorOptions gen;
  gen.scale = 0.02;
  Design d =
      synth::generate_testcase(synth::spec_by_name("aes_360"), lib, gen).design;
  // Mixed heights present -> must assert.
  EXPECT_THROW(build_uniform_floorplan(d, 0.6, 1.0), Error);
}

TEST(GlobalPlace, AllCellsInsideCore) {
  Design d = prepared_mlef_design("aes_360", 0.05);
  GlobalPlaceOptions opt;
  opt.max_iterations = 12;
  global_place(d, opt);
  const Rect core = d.floorplan.core();
  for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
    const Instance& inst = d.netlist.instance(i);
    const CellMaster& m = d.master_of(i);
    EXPECT_GE(inst.pos.x, core.lo.x);
    EXPECT_LE(inst.pos.x + m.width, core.hi.x);
    EXPECT_GE(inst.pos.y, core.lo.y);
    EXPECT_LE(inst.pos.y + m.height, core.hi.y);
  }
}

TEST(GlobalPlace, SpreadsDensity) {
  Design d = prepared_mlef_design("aes_360", 0.06);
  // All cells at the core center: heavily overflowed.
  const Point c = d.floorplan.core().center();
  for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
    d.netlist.instance(i).pos = c;
  }
  const double before = density_overflow(d);
  GlobalPlaceOptions opt;
  opt.max_iterations = 16;
  global_place(d, opt);
  const double after = density_overflow(d);
  EXPECT_LT(after, before * 0.35);
  EXPECT_LT(after, 0.30);
}

TEST(GlobalPlace, BeatsRandomPlacementOnHpwl) {
  Design d = prepared_mlef_design("aes_360", 0.05);
  // Random legal-ish placement for reference.
  Design rnd = d;
  Rng rng(5);
  const Rect core = rnd.floorplan.core();
  for (InstId i = 0; i < rnd.netlist.num_instances(); ++i) {
    Instance& inst = rnd.netlist.instance(i);
    const CellMaster& m = rnd.master_of(i);
    inst.pos = {rng.uniform_int(core.lo.x, core.hi.x - m.width),
                rng.uniform_int(core.lo.y, core.hi.y - m.height)};
  }
  const Dbu random_hpwl = total_hpwl(rnd);

  GlobalPlaceOptions opt;
  opt.max_iterations = 16;
  global_place(d, opt);
  const Dbu placed_hpwl = total_hpwl(d);
  // The QP+spreading placer alone should win clearly; the flows add a
  // detailed-refinement pass on top (tested in flows_test).
  EXPECT_LT(placed_hpwl, random_hpwl * 2 / 3)
      << "analytic placement must clearly beat random";
}

TEST(GlobalPlace, DeterministicForSeed) {
  Design a = prepared_mlef_design("aes_400", 0.04);
  Design b = prepared_mlef_design("aes_400", 0.04);
  GlobalPlaceOptions opt;
  opt.max_iterations = 8;
  global_place(a, opt);
  global_place(b, opt);
  for (InstId i = 0; i < a.netlist.num_instances(); ++i) {
    ASSERT_EQ(a.netlist.instance(i).pos, b.netlist.instance(i).pos);
  }
}

TEST(GlobalPlace, LegalizableAfterwards) {
  Design d = prepared_mlef_design("jpeg_400", 0.03);
  GlobalPlaceOptions opt;
  opt.max_iterations = 12;
  global_place(d, opt);
  const auto ar = legal::abacus_legalize(d, {});
  ASSERT_TRUE(ar.success);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;
}

TEST(Placer, RejectsUnusableOptions) {
  Design d = prepared_mlef_design("aes_400", 0.04);
  const auto before = placement_snapshot(d);
  GlobalPlaceOptions no_iterations;
  no_iterations.max_iterations = 0;  // no look-ahead to commit
  EXPECT_THROW(global_place(d, no_iterations), Error);
  GlobalPlaceOptions negative;
  negative.max_iterations = -1;
  EXPECT_THROW(global_place(d, negative), Error);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {0.0, -1.0, nan, inf}) {
    // A non-positive bin_rows made one-DBU bins; NaN was cast to Dbu.
    GlobalPlaceOptions bins;
    bins.bin_rows = bad;
    EXPECT_THROW(global_place(d, bins), Error) << "bin_rows " << bad;
    EXPECT_THROW(density_overflow(d, bad), Error) << "bin_rows " << bad;
  }
  for (double bad : {-0.5, nan, inf, -inf}) {
    // A NaN anchor weight turned every coordinate into NaN.
    GlobalPlaceOptions weight;
    weight.anchor_weight = bad;
    EXPECT_THROW(global_place(d, weight), Error) << "anchor_weight " << bad;
    GlobalPlaceOptions growth;
    growth.anchor_growth = bad;
    EXPECT_THROW(global_place(d, growth), Error) << "anchor_growth " << bad;
  }
  // -1 ran no CG iteration without a word; a NaN tolerance never converged
  // and a NaN overflow target never stopped the loop.
  GlobalPlaceOptions no_cg;
  no_cg.cg_max_iterations = -1;
  EXPECT_THROW(global_place(d, no_cg), Error);
  for (double bad : {-1e-5, nan, inf, -inf}) {
    GlobalPlaceOptions tol;
    tol.cg_tolerance = bad;
    EXPECT_THROW(global_place(d, tol), Error) << "cg_tolerance " << bad;
    GlobalPlaceOptions target;
    target.target_overflow = bad;
    EXPECT_THROW(global_place(d, target), Error) << "target_overflow " << bad;
  }
  EXPECT_EQ(placement_snapshot(d), before);  // rejected before any move
  GlobalPlaceOptions one;
  one.max_iterations = 1;
  one.anchor_weight = 0.0;  // zero weights and tiny bins stay usable
  one.anchor_growth = 0.0;
  one.bin_rows = 0.25;
  one.cg_max_iterations = 0;  // so do no CG step and zero stop thresholds
  one.cg_tolerance = 0.0;
  one.target_overflow = 0.0;
  global_place(d, one);
  EXPECT_GE(density_overflow(d, 0.25), 0.0);
  const Rect core = d.floorplan.core();
  for (const Instance& inst : d.netlist.instances()) {
    EXPECT_TRUE(core.contains(inst.pos)) << inst.name;
  }
}

/// FNV-1a over every instance position after global_place, then the
/// counters place/qp_solves, place/cg_iterations and place/lal_fallbacks of
/// that call.
using PlacerPin = std::array<std::uint64_t, 4>;

PlacerPin placer_pin(Design d, const GlobalPlaceOptions& opt) {
  trace::Collector collector;
  {
    trace::SinkScope scope(&collector);
    global_place(d, opt);
  }
  std::uint64_t h = 14695981039346656037ull;
  auto feed = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const Instance& inst : d.netlist.instances()) {
    feed(static_cast<std::uint64_t>(inst.pos.x));
    feed(static_cast<std::uint64_t>(inst.pos.y));
  }
  const auto counters = collector.counters();
  auto counter = [&counters](const char* name) -> std::uint64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : static_cast<std::uint64_t>(it->second);
  };
  return {h, counter("place/qp_solves"), counter("place/cg_iterations"),
          counter("place/lal_fallbacks")};
}

std::string format_pin(const PlacerPin& pin) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "{0x%016llxull, %llu, %llu, %llu}",
                static_cast<unsigned long long>(pin[0]),
                static_cast<unsigned long long>(pin[1]),
                static_cast<unsigned long long>(pin[2]),
                static_cast<unsigned long long>(pin[3]));
  return buf;
}

TEST(Placer, MatchesParentPlacements) {
  // One design of each ledger workload, generated and placed from the seed
  // the ledger gives design 0 of --seed 1, then aes_400 under options that
  // cut the loop short, cap most CG solves and stop on the overflow target.
  GlobalPlaceOptions ledger;
  ledger.seed = 1000;
  GlobalPlaceOptions three_rounds;
  three_rounds.max_iterations = 3;
  GlobalPlaceOptions capped_cg;
  capped_cg.cg_max_iterations = 5;
  GlobalPlaceOptions early_stop;
  early_stop.target_overflow = 0.3;  // met after round 2
  struct Want {
    const char* name;
    double scale;
    std::uint64_t seed;
    const GlobalPlaceOptions* opt;
    PlacerPin pin;
  };
  const Want cases[] = {
      {"aes_360", 0.17, 1000, &ledger,
       {0x61f094be4fc45636ull, 64, 1717, 16887}},
      {"nova_300", 0.02, 1000, &ledger,
       {0x7f8523433d851a66ull, 64, 1629, 22311}},
      {"des3_210", 0.06, 1000, &ledger,
       {0xe8aeeee223541f8full, 64, 1658, 20972}},
      {"aes_400", 0.04, 1, &three_rounds,
       {0x6def2f707b8beeb0ull, 6, 594, 134}},
      {"aes_400", 0.04, 1, &capped_cg,
       {0xaaef29da50430af2ull, 64, 267, 2862}},
      {"aes_400", 0.04, 1, &early_stop,
       {0x0886588420322d32ull, 4, 417, 46}},
  };
  for (const Want& w : cases) {
    const PlacerPin got =
        placer_pin(prepared_mlef_design(w.name, w.scale, 0.6, w.seed), *w.opt);
    EXPECT_EQ(got, w.pin) << w.name << " @ " << w.scale << ": got "
                          << format_pin(got);
  }
}

// ---------------------------------------------------------------------------
// The global placer's kernels against the code they replaced. `parent` holds
// verbatim copies of the old QpSystem, B2B assembly loop (add_net_b2b) and
// tetris_targets; the assembly copy takes its system and the look-ahead
// copy its design as a template parameter, so the one fills a QpSystem and
// the other also runs on rows a Floorplan cannot express.

namespace parent {

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
template <class Sys>
void add_net_b2b(Sys& sys, std::vector<PinCoord>& pins) {
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

/// The old per-axis assembly loop of global_place over a list of nets,
/// each given as its pin-table pins; `skip` marks clock nets.
template <class Sys>
void assemble_axis(Sys& sys, const std::vector<std::vector<db::PinTable::Pin>>& table,
                   const std::vector<char>& skip, const std::vector<double>& v, bool is_x) {
  std::vector<PinCoord> pins;
  for (std::size_t nid = 0; nid < table.size(); ++nid) {
    const auto& net = table[nid];
    if (skip[nid] != 0 || net.size() < 2) continue;
    pins.clear();
    for (const db::PinTable::Pin& pin : net) {
      if (pin.inst == kInvalidId) {  // a port, at `offset`
        pins.push_back({-1, static_cast<double>(is_x ? pin.offset.x : pin.offset.y)});
      } else {
        pins.push_back({pin.inst, v[static_cast<std::size_t>(pin.inst)]});
      }
    }
    add_net_b2b(sys, pins);
  }
}

/// Tetris-style look-ahead legalization on cell centers; returns target
/// centers. Requires uniform cell heights == row height (mLEF space).
template <class DesignLike>
std::vector<std::pair<double, double>> tetris_targets(
    const DesignLike& design, const std::vector<double>& xc,
    const std::vector<double>& yc) {
  const auto& fp = design.floorplan;
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

}  // namespace parent

/// Bitwise equality of two vectors of doubles.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) return false;
  }
  return true;
}

/// One random system, built into the old and the new QpSystem by the same
/// calls. `tiny` scales every weight below the preconditioner's 1e-12
/// diagonal floor; `signed_weights` lets diagonals cancel to zero.
void build_random_system(Rng& rng, int n, bool tiny, bool signed_weights,
                         parent::QpSystem& old_sys, detail::QpSystem& new_sys) {
  new_sys.reset(n);
  const double scale = tiny ? 1e-14 : 1.0;
  auto weight = [&] {
    double w = scale * (rng.uniform01() < 0.5 ? rng.uniform_real(1e-3, 1.0) : rng.uniform_real(1.0, 50.0));
    if (signed_weights && rng.uniform01() < 0.4) w = -w;
    return w;
  };
  const auto edges = rng.uniform_int(0, 4 * n);
  for (int e = 0; e < edges; ++e) {
    const int a = static_cast<int>(rng.uniform_int(0, n - 1));
    // One edge in eight is a self-loop: two pins of one cell on a net.
    const int b = rng.uniform_int(0, 7) == 0 ? a : static_cast<int>(rng.uniform_int(0, n - 1));
    const double w = weight();
    old_sys.add_edge(a, b, w);
    new_sys.add_edge(a, b, w);
    if (signed_weights && rng.uniform01() < 0.3) {
      // A second edge of opposite weight: a's diagonal cancels to zero.
      const int c = static_cast<int>(rng.uniform_int(0, n - 1));
      old_sys.add_edge(a, c, -w);
      new_sys.add_edge(a, c, -w);
    }
  }
  const auto fixed = rng.uniform_int(0, n);
  for (int f = 0; f < fixed; ++f) {
    const int a = static_cast<int>(rng.uniform_int(0, n - 1));
    const double w = weight();
    const double pos = rng.uniform_real(-1e4, 1e4);
    old_sys.add_fixed(a, w, pos);
    new_sys.add_fixed(a, w, pos);
  }
}

/// Bitwise equality of two systems' diagonals, right-hand sides and edges.
::testing::AssertionResult same_system(const detail::QpSystem& got,
                                       const detail::QpSystem& want) {
  if (!same_bits(got.diag(), want.diag())) return ::testing::AssertionFailure() << "diag differs";
  if (!same_bits(got.rhs(), want.rhs())) return ::testing::AssertionFailure() << "rhs differs";
  if (got.edges().size() != want.edges().size()) {
    return ::testing::AssertionFailure()
           << got.edges().size() << " edges, want " << want.edges().size();
  }
  for (std::size_t e = 0; e < got.edges().size(); ++e) {
    const detail::QpSystem::Edge& g = got.edges()[e];
    const detail::QpSystem::Edge& w = want.edges()[e];
    if (g.a != w.a || g.b != w.b ||
        std::bit_cast<std::uint64_t>(g.w) != std::bit_cast<std::uint64_t>(w.w)) {
      return ::testing::AssertionFailure() << "edge " << e << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Assemble both axes of `table` at the centres (xc, yc) with the flat list
/// and with the old loop, into two reused systems.
::testing::AssertionResult same_assembly(detail::B2bNets& nets,
                                         const std::vector<std::vector<db::PinTable::Pin>>& table,
                                         const std::vector<char>& skip,
                                         const std::vector<double>& xc,
                                         const std::vector<double>& yc,
                                         detail::QpSystem& got, detail::QpSystem& want) {
  const int n = static_cast<int>(xc.size());
  for (const bool is_x : {true, false}) {
    const std::vector<double>& v = is_x ? xc : yc;
    want.reset(n);
    parent::assemble_axis(want, table, skip, v, is_x);
    got.reset(n);
    nets.assemble(got, v, is_x);
    ::testing::AssertionResult same = same_system(got, want);
    if (!same) return same << (is_x ? " (x)" : " (y)");
  }
  return ::testing::AssertionSuccess();
}

TEST(B2bNets, MatchesParentAssemblyBitForBit) {
  Rng rng(20261019);
  detail::QpSystem got, want;  // reused, as global_place reuses its system
  std::int64_t port_min = 0, port_max = 0, port_both = 0, tied_min = 0, tied_max = 0;
  std::int64_t all_equal = 0, repeated_cell = 0, floored = 0, nets_seen = 0;
  for (int round = 0; round < 300; ++round) {
    const int cells = static_cast<int>(rng.uniform_int(1, 24));
    const int num_nets = static_cast<int>(rng.uniform_int(1, 12));
    // Coordinates on a 100-DBU grid tie cells with each other and with ports.
    auto grid = [&rng] { return rng.uniform_int(0, 4) * 100; };
    std::vector<std::vector<db::PinTable::Pin>> table;
    for (int t = 0; t < num_nets; ++t) {
      const int k = static_cast<int>(rng.uniform_int(2, 40));
      const double port_share = t % 4 == 0 ? 0.0 : (t % 4 == 1 ? 0.15 : 0.6);
      std::vector<db::PinTable::Pin> net;
      for (int i = 0; i < k; ++i) {
        if (rng.uniform01() < port_share) {
          const bool on_grid = rng.uniform01() < 0.7;
          net.push_back({kInvalidId, on_grid ? Point{grid(), grid()}
                                             : Point{rng.uniform_int(-50, 450),
                                                     rng.uniform_int(-50, 450)}});
        } else {
          net.push_back({static_cast<InstId>(rng.uniform_int(0, cells - 1)), Point{}});
        }
      }
      std::vector<char> seen(static_cast<std::size_t>(cells), 0);
      for (const db::PinTable::Pin& pin : net) {
        if (pin.inst == kInvalidId) continue;
        if (seen[static_cast<std::size_t>(pin.inst)]++ != 0) {
          ++repeated_cell;
          break;
        }
      }
      table.push_back(std::move(net));
    }
    detail::B2bNets nets(cells);
    for (const auto& net : table) nets.add_net(net);
    ASSERT_EQ(nets.num_nets(), num_nets);
    const std::vector<char> no_clock(table.size(), 0);
    for (int call = 0; call < 4; ++call) {
      std::vector<double> xc(static_cast<std::size_t>(cells)), yc(xc.size());
      for (std::size_t i = 0; i < xc.size(); ++i) {
        switch (call) {
          case 0:  // on the ports' grid
            xc[i] = static_cast<double>(grid());
            yc[i] = static_cast<double>(grid());
            break;
          case 1:
            xc[i] = rng.uniform_real(-100.0, 500.0);
            yc[i] = rng.uniform_real(-100.0, 500.0);
            break;
          case 2:  // every cell at one grid point
            xc[i] = 200.0;
            yc[i] = 200.0;
            break;
          default:  // within a DBU of each other: the distance floor binds
            xc[i] = 100.0 + rng.uniform_real(0.0, 0.9);
            yc[i] = 300.0 + rng.uniform_real(0.0, 0.9);
        }
      }
      ASSERT_TRUE(same_assembly(nets, table, no_clock, xc, yc, got, want))
          << "round " << round << ", call " << call;
      // What the round covered, on x: the first extremes as the old scan found them.
      for (const auto& net : table) {
        auto coord = [&xc](const db::PinTable::Pin& pin) {
          return pin.inst == kInvalidId ? static_cast<double>(pin.offset.x)
                                        : xc[static_cast<std::size_t>(pin.inst)];
        };
        std::size_t imin = 0, imax = 0;
        for (std::size_t i = 1; i < net.size(); ++i) {
          if (coord(net[i]) < coord(net[imin])) imin = i;
          if (coord(net[i]) > coord(net[imax])) imax = i;
        }
        const double lo = coord(net[imin]), hi = coord(net[imax]);
        const bool port_lo = net[imin].inst == kInvalidId;
        const bool port_hi = net[imax].inst == kInvalidId;
        port_min += port_lo ? 1 : 0;
        port_max += port_hi ? 1 : 0;
        port_both += port_lo && port_hi && lo != hi ? 1 : 0;
        tied_min += std::count_if(net.begin(), net.end(),
                                  [&](const auto& pin) { return coord(pin) == lo; }) > 1;
        tied_max += std::count_if(net.begin(), net.end(),
                                  [&](const auto& pin) { return coord(pin) == hi; }) > 1;
        all_equal += lo == hi ? 1 : 0;
        floored += lo != hi && hi - lo < 1.0 ? 1 : 0;
        ++nets_seen;
      }
    }
  }
  EXPECT_GT(port_min, 500);
  EXPECT_GT(port_max, 500);
  EXPECT_GT(port_both, 200);
  EXPECT_GT(tied_min, 1000);
  EXPECT_GT(tied_max, 1000);
  EXPECT_GT(all_equal, 300);
  EXPECT_GT(floored, 300);
  EXPECT_GT(repeated_cell, 500);
  EXPECT_GT(nets_seen, 5000);
}

TEST(B2bNets, OneCellThroughTwoPins) {
  // The cell is both extremes' partner: a self-edge, as the old loop added.
  const std::vector<std::vector<db::PinTable::Pin>> table = {
      {{0, Point{}}, {0, Point{}}},
      {{1, Point{}}, {kInvalidId, Point{40, 7}}, {1, Point{}}, {0, Point{}}},
  };
  detail::B2bNets nets(2);
  for (const auto& net : table) nets.add_net(net);
  detail::QpSystem got, want;
  const std::vector<char> no_clock(table.size(), 0);
  ASSERT_TRUE(same_assembly(nets, table, no_clock, {5.0, 5.0}, {9.0, 2.0}, got, want));
  ASSERT_FALSE(got.edges().empty());
  EXPECT_EQ(got.edges()[0].a, 0);
  EXPECT_EQ(got.edges()[0].b, 0);
  EXPECT_THROW(nets.add_net(std::span<const db::PinTable::Pin>(table[0].data(), 1)), Error);
}

TEST(B2bNets, MatchesParentOnDesigns) {
  Rng rng(41);
  detail::QpSystem got, want;
  for (const char* name : {"aes_360", "nova_300"}) {
    const Design d = prepared_mlef_design(name, 0.04);
    const db::PinTable pt(d);
    std::vector<std::vector<db::PinTable::Pin>> table;
    std::vector<char> clock_net;
    int counted = 0, clocks = 0;
    for (NetId nid = 0; nid < pt.num_nets(); ++nid) {
      table.emplace_back(pt.pins(nid).begin(), pt.pins(nid).end());
      clock_net.push_back(pt.is_clock(nid) ? 1 : 0);
      clocks += pt.is_clock(nid) ? 1 : 0;
      counted += !pt.is_clock(nid) && pt.pins(nid).size() >= 2 ? 1 : 0;
    }
    EXPECT_GT(clocks, 0) << name;
    detail::B2bNets nets(d);
    EXPECT_EQ(nets.num_nets(), counted) << name;
    const Rect core = d.floorplan.core();
    const auto n = static_cast<std::size_t>(d.netlist.num_instances());
    for (int call = 0; call < 3; ++call) {
      // Centres clamped into the core as the QP's are, so some tie.
      std::vector<double> xc(n), yc(n);
      for (std::size_t i = 0; i < n; ++i) {
        xc[i] = std::clamp(static_cast<double>(core.center().x) +
                               static_cast<double>(core.width()) * rng.normal(),
                           static_cast<double>(core.lo.x) + 1.0,
                           static_cast<double>(core.hi.x) - 1.0);
        yc[i] = std::clamp(static_cast<double>(core.center().y) +
                               static_cast<double>(core.height()) * rng.normal(),
                           static_cast<double>(core.lo.y) + 1.0,
                           static_cast<double>(core.hi.y) - 1.0);
      }
      ASSERT_TRUE(same_assembly(nets, table, clock_net, xc, yc, got, want))
          << name << ", call " << call;
    }
  }
}

TEST(QpSystem, MatchesParentSolveBitForBit) {
  Rng rng(20261017);
  detail::QpSystem sys;  // reused across every case, as global_place does
  int converged = 0, capped = 0;
  for (int round = 0; round < 3000; ++round) {
    const int n = static_cast<int>(rng.uniform_int(1, round % 10 == 0 ? 300 : 40));
    const bool tiny = round % 7 == 3;
    const bool signed_weights = round % 5 == 1;
    parent::QpSystem old_sys(n);
    build_random_system(rng, n, tiny, signed_weights, old_sys, sys);
    std::vector<double> x(static_cast<std::size_t>(n));
    const double spread = tiny ? 1e3 : 1e4;
    for (double& v : x) v = rng.uniform_real(-spread, spread);
    if (round % 11 == 0) {
      // Tied warm starts, as clamped cells have.
      std::fill(x.begin(), x.begin() + n / 2, spread / 2);
    }
    const int max_iters = round % 4 == 0 ? static_cast<int>(rng.uniform_int(0, 5)) : 120;
    const double tol = round % 3 == 0 ? 1e-9 : 1e-5;
    std::vector<double> want = x;
    old_sys.solve(want, max_iters, tol);
    const int its = sys.solve(x, max_iters, tol);
    ASSERT_TRUE(same_bits(x, want)) << "round " << round << ", n " << n;
    if (its == max_iters) ++capped;
    if (its < max_iters) ++converged;
  }
  EXPECT_GT(capped, 100);
  EXPECT_GT(converged, 100);
}

TEST(QpSystem, EarlyExitsMatchParent) {
  detail::QpSystem sys;
  // r0 < 1e-12: the warm start already solves the system (rhs and x zero).
  {
    parent::QpSystem old_sys(4);
    sys.reset(4);
    old_sys.add_edge(0, 1, 2.0);
    old_sys.add_edge(2, 3, 0.5);
    sys.add_edge(0, 1, 2.0);
    sys.add_edge(2, 3, 0.5);
    std::vector<double> x(4, 0.0), want(4, 0.0);
    old_sys.solve(want, 50, 1e-5);
    EXPECT_EQ(sys.solve(x, 50, 1e-5), 0);
    EXPECT_TRUE(same_bits(x, want));
  }
  // p.Ap <= 1e-18 on the first iteration: every diagonal is below the
  // preconditioner's floor, so z = r and p.Ap is about d * |r|^2.
  {
    parent::QpSystem old_sys(3);
    sys.reset(3);
    for (int a = 0; a < 3; ++a) {
      old_sys.add_fixed(a, 1e-14, 5e2 * (a + 1));
      sys.add_fixed(a, 1e-14, 5e2 * (a + 1));
    }
    std::vector<double> x = {-1e3, 2e3, 4e3};
    std::vector<double> want = x;
    old_sys.solve(want, 50, 1e-5);
    EXPECT_EQ(sys.solve(x, 50, 1e-5), 1);
    EXPECT_TRUE(same_bits(x, want));
    EXPECT_EQ(x, (std::vector<double>{-1e3, 2e3, 4e3}));  // no step taken
  }
  // 0 < r0 < 1e-12 returns too, although a step would still move x.
  {
    parent::QpSystem old_sys(1);
    sys.reset(1);
    old_sys.add_fixed(0, 1e-10, 1e-3);
    sys.add_fixed(0, 1e-10, 1e-3);
    std::vector<double> x = {0.0}, want = {0.0};
    old_sys.solve(want, 50, 1e-5);
    EXPECT_EQ(sys.solve(x, 50, 1e-5), 0);
    EXPECT_TRUE(same_bits(x, want));
    EXPECT_EQ(x[0], 0.0);
  }
  // A zero-diagonal row with a nonzero residual, and the iteration cap.
  {
    parent::QpSystem old_sys(3);
    sys.reset(3);
    const std::tuple<int, int, double> edges[] = {{0, 1, 1.5}, {0, 2, -1.5}, {1, 2, 0.25}};
    for (const auto& [a, b, w] : edges) {
      old_sys.add_edge(a, b, w);
      sys.add_edge(a, b, w);
    }
    old_sys.add_fixed(1, 3.0, 7.0);
    sys.add_fixed(1, 3.0, 7.0);
    for (int cap : {0, 1, 2, 3}) {
      std::vector<double> x = {1.0, -2.0, 3.0};
      std::vector<double> want = x;
      old_sys.solve(want, cap, 1e-12);
      const int its = sys.solve(x, cap, 1e-12);
      EXPECT_LE(its, cap);
      EXPECT_TRUE(same_bits(x, want)) << "cap " << cap;
    }
  }
}

/// The old look-ahead's view of a design: rows and cell widths only.
struct LalMaster {
  Dbu width = 0;
};
struct LalNetlist {
  int n = 0;
  int num_instances() const { return n; }
};
struct LalFloorplan {
  std::vector<Row> rows;
  int num_rows() const { return static_cast<int>(rows.size()); }
  const Row& row(int i) const { return rows.at(static_cast<std::size_t>(i)); }
  /// Floorplan::row_at_y.
  int row_at_y(Dbu y) const {
    if (y < rows.front().y) return 0;
    if (y >= rows.back().y_top()) return num_rows() - 1;
    int lo = 0;
    int hi = num_rows() - 1;
    while (lo < hi) {
      const int mid = (lo + hi + 1) / 2;
      if (rows[static_cast<std::size_t>(mid)].y <= y) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  }
};
struct LalDesign {
  LalFloorplan floorplan;
  LalNetlist netlist;
  std::vector<LalMaster> masters;
  const LalMaster& master_of(int i) const { return masters.at(static_cast<std::size_t>(i)); }
};

LalDesign lal_view(const Design& d) {
  LalDesign v;
  v.floorplan.rows = d.floorplan.rows();
  v.netlist.n = d.netlist.num_instances();
  for (InstId i = 0; i < v.netlist.n; ++i) v.masters.push_back({d.master_of(i).width});
  return v;
}

std::vector<double> widths_of(const LalDesign& v) {
  std::vector<double> w;
  for (const LalMaster& m : v.masters) w.push_back(static_cast<double>(m.width));
  return w;
}

bool same_targets(const std::vector<std::pair<double, double>>& a,
                  const std::vector<std::pair<double, double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i].first) != std::bit_cast<std::uint64_t>(b[i].first) ||
        std::bit_cast<std::uint64_t>(a[i].second) != std::bit_cast<std::uint64_t>(b[i].second)) {
      return false;
    }
  }
  return true;
}

/// Random rows stacked from y = 0, each `h` high, with x0 in [0, 20) and
/// x1 either shared or drawn per row.
LalDesign random_rows_design(Rng& rng, int nrows, int cells, bool same_x1) {
  LalDesign v;
  const Dbu h = 10;
  const Dbu shared_x1 = rng.uniform_int(200, 600);
  for (int r = 0; r < nrows; ++r) {
    Row row;
    row.y = r * h;
    row.height = h;
    row.x0 = rng.uniform_int(0, 19);
    row.x1 = same_x1 ? shared_x1 : rng.uniform_int(60, 600);
    v.floorplan.rows.push_back(row);
  }
  v.netlist.n = cells;
  for (int i = 0; i < cells; ++i) v.masters.push_back({rng.uniform_int(1, 40)});
  return v;
}

TEST(LookAhead, MatchesParentOnRandomRows) {
  Rng rng(977);
  std::int64_t fallbacks = 0, past_end = 0;
  for (int round = 0; round < 400; ++round) {
    const int nrows_choice[] = {1, 2, 3, 5, 8, 18, 33};
    const int nrows = nrows_choice[round % 7];
    // Up to 3x the rows' capacity: rows fill, windows widen, cells fall back.
    const int cells = static_cast<int>(rng.uniform_int(1, 12 * nrows + 10));
    const LalDesign v = random_rows_design(rng, nrows, cells, round % 3 == 0);
    detail::LookAhead lal(v.floorplan.rows, widths_of(v));
    Dbu max_x1 = 0;
    for (const Row& row : v.floorplan.rows) max_x1 = std::max(max_x1, row.x1);
    const double y_top = static_cast<double>(v.floorplan.rows.back().y_top());
    std::vector<std::pair<double, double>> got;
    for (int call = 0; call < 3; ++call) {  // one object, several rounds
      std::vector<double> xc(static_cast<std::size_t>(cells)), yc(xc.size());
      for (int i = 0; i < cells; ++i) {
        const auto iu = static_cast<std::size_t>(i);
        switch (rng.uniform_int(0, 6)) {
          case 0:  // tied at a clamp bound
            xc[iu] = 1.0;
            break;
          case 1:  // right edge past every row's end
            xc[iu] = static_cast<double>(max_x1) - rng.uniform_real(0.0, 10.0);
            break;
          case 2:  // tied in the middle
            xc[iu] = 100.0;
            break;
          case 3:  // right edge exactly at the longest row's end
            xc[iu] = static_cast<double>(max_x1) - static_cast<double>(v.masters[iu].width) / 2.0;
            break;
          default:
            xc[iu] = rng.uniform_real(-10.0, static_cast<double>(max_x1) + 10.0);
        }
        switch (rng.uniform_int(0, 3)) {
          case 0:  // inside row 0
            yc[iu] = 3.0;
            break;
          case 1:  // the centre of the middle row: rows an equal distance
                   // below and above it tie on cost
            yc[iu] = static_cast<double>(v.floorplan.rows[static_cast<std::size_t>(nrows / 2)].y_center());
            break;
          default:
            yc[iu] = rng.uniform_real(-5.0, y_top + 5.0);
        }
        if (xc[iu] - static_cast<double>(v.masters[iu].width) / 2.0 +
                static_cast<double>(v.masters[iu].width) >
            static_cast<double>(max_x1)) {
          ++past_end;
        }
      }
      const auto want = parent::tetris_targets(v, xc, yc);
      fallbacks += lal.place(xc, yc, got);
      ASSERT_TRUE(same_targets(got, want)) << "round " << round << ", call " << call;
    }
  }
  EXPECT_GT(fallbacks, 1000);
  EXPECT_GT(past_end, 1000);
}

TEST(LookAhead, LastWindowSkipsRowsAsBefore) {
  // 18 rows, every cell wanting row 0: windows 2, 4, 8 and 16 reach row 16
  // at most. Rows 0-16 end at x = 40 and row 17 at x = 400. A cell that fits
  // none of rows 0-16 falls back to the least-filled row, which soon is a
  // short one, although the never-scanned row 17 has room for it.
  LalDesign v;
  for (int r = 0; r < 18; ++r) {
    Row row;
    row.y = r * 10;
    row.height = 10;
    row.x0 = 0;
    row.x1 = r == 17 ? 400 : 40;
    v.floorplan.rows.push_back(row);
  }
  v.netlist.n = 70;
  for (int i = 0; i < v.netlist.n; ++i) v.masters.push_back({10 + i % 7});
  std::vector<double> xc(70), yc(70, 2.0);
  for (std::size_t i = 0; i < xc.size(); ++i) xc[i] = 5.0 + static_cast<double>(i % 9);
  detail::LookAhead lal(v.floorplan.rows, widths_of(v));
  std::vector<std::pair<double, double>> got;
  const std::int64_t fallbacks = lal.place(xc, yc, got);
  EXPECT_TRUE(same_targets(got, parent::tetris_targets(v, xc, yc)));
  EXPECT_GT(fallbacks, 0);
  double row17_end = 0.0;
  int past_short_row = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double right = got[i].first + static_cast<double>(v.masters[i].width) / 2.0;
    if (got[i].second == 175.0) {
      row17_end = std::max(row17_end, right);
    } else if (right > 40.0) {
      ++past_short_row;
    }
  }
  EXPECT_GT(past_short_row, 0);
  EXPECT_LT(row17_end, 300.0);  // row 17 had room throughout
}

TEST(LookAhead, RejectsRowsOfUnequalHeightOrWithGaps) {
  std::vector<Row> rows;
  for (Dbu r = 0; r < 4; ++r) rows.push_back(Row{5 + 10 * r, 10, 0, 100});
  EXPECT_NO_THROW(detail::LookAhead(rows, {}));
  std::vector<Row> taller = rows;
  taller[3].height = 12;  // still gap-free
  EXPECT_THROW(detail::LookAhead(taller, {}), Error);
  std::vector<Row> gap = rows;
  gap[2].y += 1;
  gap[3].y += 1;
  EXPECT_THROW(detail::LookAhead(gap, {}), Error);
  std::vector<Row> flat = rows;
  for (Row& row : flat) {
    row.y = 5;
    row.height = 0;
  }
  EXPECT_THROW(detail::LookAhead(flat, {}), Error);
  EXPECT_THROW(detail::LookAhead({}, {}), Error);
  // A mixed-height floorplan: rows a Floorplan holds outside mLEF space.
  const Tech& tech = liberty::library_ref()->tech();
  const Floorplan mixed = Floorplan::make_mixed(
      Rect{{0, 0}, {100 * tech.site_width, 0}}, 0,
      {TrackHeight::H6T, TrackHeight::H75T}, tech, tech.site_width);
  EXPECT_THROW(detail::LookAhead(mixed.rows(), {}), Error);
}

TEST(LookAhead, MatchesParentOnPlacedDesigns) {
  Rng rng(31);
  for (const char* name : {"aes_360", "nova_300"}) {
    const Design d = prepared_mlef_design(name, 0.04);
    const LalDesign v = lal_view(d);
    detail::LookAhead lal(d.floorplan.rows(), widths_of(v));
    const Rect core = d.floorplan.core();
    std::vector<std::pair<double, double>> got;
    for (int call = 0; call < 6; ++call) {
      // Centres clamped into the core like the QP's, around a hot spot
      // that tightens call by call.
      const double sx = static_cast<double>(core.width()) / (1.0 + call);
      const double sy = static_cast<double>(core.height()) / (1.0 + call);
      std::vector<double> xc(static_cast<std::size_t>(v.netlist.n)), yc(xc.size());
      for (std::size_t i = 0; i < xc.size(); ++i) {
        xc[i] = std::clamp(static_cast<double>(core.center().x) + sx * rng.normal(),
                           static_cast<double>(core.lo.x) + 1.0,
                           static_cast<double>(core.hi.x) - 1.0);
        yc[i] = std::clamp(static_cast<double>(core.center().y) + sy * rng.normal(),
                           static_cast<double>(core.lo.y) + 1.0,
                           static_cast<double>(core.hi.y) - 1.0);
      }
      lal.place(xc, yc, got);
      ASSERT_TRUE(same_targets(got, parent::tetris_targets(d, xc, yc)))
          << name << ", call " << call;
    }
  }
}

TEST(DensityOverflow, ZeroForPerfectSpread) {
  Design d = prepared_mlef_design("aes_400", 0.04);
  GlobalPlaceOptions opt;
  opt.max_iterations = 14;
  global_place(d, opt);
  legal::abacus_legalize(d, {});
  EXPECT_LT(density_overflow(d), 0.35);
}

}  // namespace
}  // namespace mth::place
