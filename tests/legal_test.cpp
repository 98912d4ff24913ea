// Abacus legalization tests: legality invariants, displacement minimality
// trends, row-constraint filters, swap polish, placements pinned to recorded
// hashes, and the legalizer's fast paths against copies of the code they
// replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "mth/db/metrics.hpp"
#include "mth/db/mlef.hpp"
#include "mth/db/pintable.hpp"
#include "mth/db/rowassign.hpp"
#include "mth/legal/abacus.hpp"
#include "mth/legal/improve.hpp"
#include "mth/legal/pairlookup.hpp"
#include "mth/legal/polish.hpp"
#include "mth/legal/rowlist.hpp"
#include "mth/liberty/asap7.hpp"
#include "mth/place/placer.hpp"
#include "mth/rap/rclegal.hpp"
#include "mth/synth/generator.hpp"
#include "mth/trace/collector.hpp"
#include "mth/util/error.hpp"
#include "mth/util/log.hpp"
#include "mth/util/rng.hpp"
#include "swap_metric.hpp"

namespace mth::legal {
namespace {

Design make_placed_design(const char* name, double scale, std::uint64_t seed = 7) {
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
  place::build_uniform_floorplan(d, 0.6, 1.0);
  place::GlobalPlaceOptions gp;
  gp.max_iterations = 10;
  place::global_place(d, gp);
  return d;
}

TEST(Abacus, ProducesLegalPlacement) {
  Design d = make_placed_design("aes_360", 0.05);
  const auto r = abacus_legalize(d, {});
  ASSERT_TRUE(r.success);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;
  EXPECT_EQ(count_overlaps(d), 0);
}

TEST(Abacus, ReportsDisplacement) {
  Design d = make_placed_design("aes_360", 0.05);
  const auto snap = placement_snapshot(d);
  const auto r = abacus_legalize(d, {});
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.total_displacement, total_displacement(d, snap));
  EXPECT_GE(r.max_displacement, 0);
  EXPECT_LE(r.max_displacement, r.total_displacement);
}

TEST(Abacus, AlreadyLegalIsNearNoop) {
  Design d = make_placed_design("aes_400", 0.04);
  abacus_legalize(d, {});
  const auto snap = placement_snapshot(d);
  const auto r = abacus_legalize(d, {});
  ASSERT_TRUE(r.success);
  // Re-legalizing a legal placement should barely move anything.
  EXPECT_LE(total_displacement(d, snap),
            static_cast<Dbu>(d.netlist.num_instances()) * 60);
}

TEST(Abacus, SmallPerturbationSmallMove) {
  Design d = make_placed_design("aes_400", 0.04);
  abacus_legalize(d, {});
  // Nudge 10 cells by one site; Abacus must restore legality cheaply.
  Rng rng(3);
  for (int k = 0; k < 10; ++k) {
    const InstId i = static_cast<InstId>(
        rng.uniform_int(0, d.netlist.num_instances() - 1));
    d.netlist.instance(i).pos.x += 27;  // off the site grid
  }
  const auto r = abacus_legalize(d, {});
  ASSERT_TRUE(r.success);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;
}

TEST(Abacus, RowFilterRespected) {
  Design d = make_placed_design("aes_300", 0.05);
  const int pairs = d.floorplan.num_pairs();
  RowAssignment ra = RowAssignment::all_majority(pairs);
  // Mark every 3rd pair minority (comfortable capacity for aes_300's 28%
  // minority at 60% utilization).
  for (int p = 1; p < pairs; p += 3) ra.pair_is_minority[static_cast<std::size_t>(p)] = true;

  AbacusOptions opt;
  const Design* dp = &d;
  const RowAssignment* rap = &ra;
  opt.row_filter = [dp, rap](InstId cell, int row) {
    return dp->is_minority(cell) == rap->is_minority_row(row);
  };
  const auto r = abacus_legalize(d, opt);
  ASSERT_TRUE(r.success);
  for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
    const int row = d.floorplan.row_at_y(d.netlist.instance(i).pos.y);
    EXPECT_EQ(d.is_minority(i), ra.is_minority_row(row))
        << d.netlist.instance(i).name;
  }
  EXPECT_EQ(count_overlaps(d), 0);
}

TEST(Abacus, RespectTrackHeightInMixedFloorplan) {
  // Build a mixed floorplan and place a few mixed-height cells directly.
  auto lib = liberty::library_ref();
  Design d;
  d.library = lib;
  const Tech& tech = lib->tech();
  const int inv6 = find_asap7_master(*lib, CellFunc::Inv, 1, TrackHeight::H6T, Vt::RVT);
  const int inv7 = find_asap7_master(*lib, CellFunc::Inv, 2, TrackHeight::H75T, Vt::RVT);
  for (int k = 0; k < 12; ++k) {
    d.netlist.add_instance("a" + std::to_string(k), k % 3 == 0 ? inv7 : inv6,
                           {k * 200, 300});
  }
  d.floorplan = Floorplan::make_mixed(
      Rect{{0, 0}, {10800, 1}}, 0,
      {TrackHeight::H6T, TrackHeight::H75T, TrackHeight::H6T}, tech, 54);
  AbacusOptions opt;
  opt.respect_track_height = true;
  const auto r = abacus_legalize(d, opt);
  ASSERT_TRUE(r.success);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why, /*require_track_match=*/true)) << why;
}

TEST(Abacus, FailsGracefullyWhenNoRowFits) {
  // Single 6T row pair but a 7.5T cell with height enforcement: impossible.
  auto lib = liberty::library_ref();
  Design d;
  d.library = lib;
  const int inv7 =
      find_asap7_master(*lib, CellFunc::Inv, 1, TrackHeight::H75T, Vt::RVT);
  d.netlist.add_instance("x", inv7, {0, 0});
  d.floorplan = Floorplan::make_uniform(Rect{{0, 0}, {1080, 432}}, 1,
                                        lib->tech().row_height_6t,
                                        TrackHeight::H6T, 54);
  AbacusOptions opt;
  opt.respect_track_height = true;
  const auto r = abacus_legalize(d, opt);
  EXPECT_FALSE(r.success);
}

TEST(Abacus, CapacityOverflowHandledAcrossRows) {
  // More cell width than one row: cells must spill to other rows, stay legal.
  auto lib = liberty::library_ref();
  Design d;
  d.library = lib;
  const int buf6 = find_asap7_master(*lib, CellFunc::Buf, 4, TrackHeight::H6T, Vt::RVT);
  const Dbu w = lib->master(buf6).width;
  const int per_row = static_cast<int>(2160 / w);
  for (int k = 0; k < per_row * 3; ++k) {
    d.netlist.add_instance("b" + std::to_string(k), buf6, {0, 0});  // all at origin
  }
  d.floorplan = Floorplan::make_uniform(Rect{{0, 0}, {2160, 4 * 216}}, 2,
                                        216, TrackHeight::H6T, 54);
  const auto r = abacus_legalize(d, {});
  ASSERT_TRUE(r.success);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;
}

TEST(Abacus, RejectsUnusableOptions) {
  Design d = make_placed_design("aes_400", 0.04);
  AbacusOptions no_window;
  no_window.initial_row_window = 0;  // never widened: 0 * 2 == 0
  EXPECT_THROW(abacus_legalize(d, no_window), Error);
  AbacusOptions negative_window;
  negative_window.initial_row_window = -4;
  EXPECT_THROW(abacus_legalize(d, negative_window), Error);
  AbacusOptions negative_weight;
  negative_weight.y_weight = -1.0;
  EXPECT_THROW(abacus_legalize(d, negative_weight), Error);
  AbacusOptions inf_weight;
  inf_weight.y_weight = std::numeric_limits<double>::infinity();
  EXPECT_THROW(abacus_legalize(d, inf_weight), Error);
  AbacusOptions nan_weight;
  nan_weight.y_weight = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(abacus_legalize(d, nan_weight), Error);
  // The smallest usable values still legalize.
  AbacusOptions smallest;
  smallest.initial_row_window = 1;
  smallest.y_weight = 0.0;
  ASSERT_TRUE(abacus_legalize(d, smallest).success);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;
}

/// One polish sweep over a fresh pin table and row list.
int polish_once(Design& d) {
  const db::PinTable pins(d);
  RowList rows(d);
  return swap_polish(d, pins, rows).accepted;
}

TEST(SwapPolish, NeverIncreasesHpwl) {
  Design d = make_placed_design("aes_360", 0.05);
  abacus_legalize(d, {});
  const Dbu before = total_hpwl(d);
  const int swaps = polish_once(d);
  const Dbu after = total_hpwl(d);
  EXPECT_LE(after, before);
  EXPECT_GE(swaps, 0);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;
}

TEST(SwapPolish, ConvergeStopsAtFixpoint) {
  Design d = make_placed_design("aes_400", 0.04);
  abacus_legalize(d, {});
  swap_polish_converge(d, 10);
  // A converged placement admits no further improving swap.
  EXPECT_EQ(polish_once(d), 0);
}

TEST(SwapPolish, PreservesLegalityWithMixedWidths) {
  Design d = make_placed_design("des3_250", 0.03);
  abacus_legalize(d, {});
  swap_polish_converge(d);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;
  EXPECT_EQ(count_overlaps(d), 0);
}

/// Rows equal as chains: same first/last per row and the same links.
bool same_rows(const RowList& a, const RowList& b) {
  if (a.num_rows() != b.num_rows() || a.num_instances() != b.num_instances()) return false;
  for (int r = 0; r < a.num_rows(); ++r) {
    if (a.row_first(r) != b.row_first(r) || a.row_last(r) != b.row_last(r)) return false;
  }
  for (InstId i = 0; i < a.num_instances(); ++i) {
    if (a.pred(i) != b.pred(i) || a.next(i) != b.next(i) || a.row_of(i) != b.row_of(i)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Cached swap metric vs the per-use rescan it replaced. local_hpwl below is a
// verbatim copy of swap_polish's former acceptance metric; run_checked_sweeps
// drives the polish's sweep (same cursor rule) and compares the two on every
// candidate, before and after the trial swap.
// ---------------------------------------------------------------------------
Dbu local_hpwl(const Design& design, InstId a, InstId b) {
  const Netlist& nl = design.netlist;
  const auto& uses = nl.inst_uses();
  Dbu sum = 0;
  auto add_nets = [&](InstId i, InstId skip_dup_of) {
    for (const InstUse& u : uses[static_cast<std::size_t>(i)]) {
      const Net& net = nl.net(u.net);
      if (net.is_clock) continue;
      // Avoid double counting nets shared by a and b.
      if (skip_dup_of >= 0) {
        bool shared = false;
        for (const InstUse& v : uses[static_cast<std::size_t>(skip_dup_of)]) {
          if (v.net == u.net) {
            shared = true;
            break;
          }
        }
        if (shared) continue;
      }
      BBox bb;
      for (const PinRef& ref : net.pins) {
        bb.add(nl.pin_position(ref, *design.library));
      }
      sum += bb.half_perimeter();
    }
  };
  add_nets(a, -1);
  add_nets(b, a);
  return sum;
}

struct SweepCheck {
  std::int64_t candidates = 0;
  std::int64_t accepted = 0;
  std::int64_t mismatches = 0;
  std::string first_mismatch;
};

SweepCheck run_checked_sweeps(Design& design, int max_sweeps) {
  SweepCheck out;
  RowList rows(design);
  const db::PinTable pins(design);
  detail::SwapMetric metric(pins);
  auto check = [&out](Dbu got, Dbu want, InstId a, InstId b, const char* when) {
    if (got == want) return;
    if (out.mismatches++ == 0) {
      out.first_mismatch = std::string(when) + " (" + std::to_string(a) + ", " +
                           std::to_string(b) + "): " + std::to_string(got) +
                           " vs " + std::to_string(want);
    }
  };
  for (int s = 0; s < max_sweeps; ++s) {
    int accepted = 0;
    for (int row = 0; row < rows.num_rows(); ++row) {
      InstId a = rows.row_first(row);
      while (a != kInvalidId) {
        const InstId b = rows.next(a);
        if (b == kInvalidId) break;
        Instance& ia = design.netlist.instance(a);
        Instance& ib = design.netlist.instance(b);
        const Dbu wa = design.master_of(a).width;
        const Dbu wb = design.master_of(b).width;
        const Dbu ax = ia.pos.x, bx = ib.pos.x;
        ++out.candidates;
        const Dbu before = local_hpwl(design, a, b);
        check(metric.before(a, b), before, a, b, "before");
        ib.pos.x = ax;
        ia.pos.x = bx + wb - wa;
        const Dbu after = local_hpwl(design, a, b);
        check(metric.after(), after, a, b, "after");
        if (after < before) {
          metric.accept();
          rows.swap_adjacent(a, b);
          ++accepted;
        } else {
          ia.pos.x = ax;
          ib.pos.x = bx;
          a = b;
        }
      }
    }
    out.accepted += accepted;
    // Between candidates the cache holds every net's current HPWL.
    EXPECT_EQ(metric.total(), total_hpwl(design)) << "after sweep " << s;
    if (accepted == 0) break;
  }
  return out;
}

TEST(SwapMetric, MatchesPerUseRescanOnEveryCandidate) {
  for (const char* name : {"aes_360", "des3_250", "vga_270"}) {
    Design d = make_placed_design(name, 0.04);
    ASSERT_TRUE(abacus_legalize(d, {}).success);
    Design reference = d;
    const SweepCheck c = run_checked_sweeps(d, 4);
    EXPECT_EQ(c.mismatches, 0) << name << ": first " << c.first_mismatch;
    EXPECT_GT(c.candidates, 1000) << name;
    EXPECT_GT(c.accepted, 0) << name;
    // The checked sweeps kept exactly the swaps swap_polish_converge keeps.
    EXPECT_EQ(swap_polish_converge(reference, 4), c.accepted) << name;
    EXPECT_EQ(placement_snapshot(reference), placement_snapshot(d)) << name;
  }
}

constexpr int kA = 0, kB = 1, kY = 2;  // NAND2 pins: inputs first, output last

/// One row of NAND2s on a one-pair core `row_cells` cells wide, cell k at
/// x = slots[k] * w for the NAND2 width w. Ports and nets are the caller's.
Design nand2_row(std::initializer_list<int> slots, int row_cells) {
  auto lib = liberty::library_ref();
  Design d;
  d.library = lib;
  const int nand = find_asap7_master(*lib, CellFunc::Nand2, 1, TrackHeight::H6T, Vt::RVT);
  const Dbu w = lib->master(nand).width;
  int k = 0;
  for (const int slot : slots) {
    d.netlist.add_instance("c" + std::to_string(k++), nand, {slot * w, 0});
  }
  d.floorplan = Floorplan::make_uniform(Rect{{0, 0}, {row_cells * w, 432}}, 1, 216,
                                        TrackHeight::H6T, 54);
  return d;
}

NetId add_net(Design& d, const char* name, std::initializer_list<PinRef> pins) {
  const NetId n = d.netlist.add_net(name);
  for (const PinRef& p : pins) d.netlist.connect(n, p);
  return n;
}

TEST(SwapMetric, MultiPinAndSharedNets) {
  // One row of NAND2s. Nets: a driver and a sink side by side (shared by
  // a and b), both inputs of one cell on one net (two uses), an input port,
  // a clock net, and a cell driving its own input. Every pair is a
  // candidate at least once, in both orders after accepted swaps.
  const int kCells = 8;
  // Scrambled slots: the polish has swaps to take.
  Design d = nand2_row({5, 0, 7, 2, 6, 1, 4, 3}, 40);
  const Dbu w = d.master_of(0).width;
  const PortId in = d.netlist.add_port("in", {0, 900}, true);
  const PortId out = d.netlist.add_port("out", {40 * w, 0}, false);
  add_net(d, "shared", {{0, kY}, {1, kA}, {7, kB}});
  add_net(d, "double", {{2, kY}, {3, kA}, {3, kB}});
  add_net(d, "port_in", {{kInvalidId, in}, {1, kB}, {4, kA}, {6, kA}});
  add_net(d, "self", {{4, kY}, {4, kB}, {5, kA}});
  add_net(d, "out", {{5, kY}, {kInvalidId, out}});
  add_net(d, "chain", {{6, kY}, {0, kA}, {2, kA}, {5, kB}});
  add_net(d, "tail", {{3, kY}, {7, kA}, {2, kB}, {6, kB}});
  add_net(d, "last", {{1, kY}, {0, kB}});
  const NetId clk = add_net(d, "clk", {{7, kY}});
  d.netlist.net(clk).is_clock = true;
  d.check();

  const SweepCheck c = run_checked_sweeps(d, 10);
  EXPECT_EQ(c.mismatches, 0) << "first " << c.first_mismatch;
  EXPECT_GT(c.accepted, 0);
  EXPECT_GT(c.candidates, 2 * (kCells - 1));
}

TEST(SwapMetric, PolishKeepsASwapTheImproverRejects) {
  // Two NAND2s, a then b, fill one row, so swapping them is the only move:
  // b lands at 0 and a at w. Both inputs of a reach a port at the row's
  // right end, so that net shrinks by w, counted twice by the polish's
  // once-per-use rule. b's output reaches a port there too and grows by w.
  // b's input A reaches a port w / 4 left of the pin, which the swap leaves
  // 3w / 4 right of it: that net grows by w / 2. The per-use metric falls by
  // about w / 2 while the total HPWL rises by about w / 2, so swap_polish
  // keeps the swap and improve_placement, which counts each net once,
  // rejects it.
  Design d = nand2_row({0, 1}, 2);
  const Dbu w = d.master_of(0).width;
  const Dbu a_x = d.master_of(1).pins[kA].offset.x;
  const PortId right_a = d.netlist.add_port("right_a", {2 * w, 0}, true);
  const PortId right_b = d.netlist.add_port("right_b", {2 * w, 0}, false);
  const PortId mid = d.netlist.add_port("mid", {a_x + 3 * w / 4, 0}, true);
  add_net(d, "double", {{kInvalidId, right_a}, {0, kA}, {0, kB}});
  add_net(d, "out", {{1, kY}, {kInvalidId, right_b}});
  add_net(d, "in", {{kInvalidId, mid}, {1, kA}});
  d.check();

  Design polished = d;
  const db::PinTable pins(polished);
  RowList rows(polished);
  EXPECT_EQ(swap_polish(polished, pins, rows).accepted, 1);
  EXPECT_EQ(polished.netlist.instance(1).pos.x, 0);
  EXPECT_GT(total_hpwl(polished), total_hpwl(d));

  Design improved = d;
  const ImproveStats st = improve_placement(improved);
  EXPECT_EQ(st.accepted_swaps, 0);
  EXPECT_EQ(st.accepted_shifts, 0);  // the full row leaves no gap to shift in
  EXPECT_EQ(st.hpwl_after, total_hpwl(d));
  EXPECT_EQ(placement_snapshot(improved), placement_snapshot(d));
}

TEST(SwapMetric, PerNetRuleMovesWithTotalHpwl) {
  // Under the improver's rule the metric of a candidate changes by exactly
  // the change of total HPWL: for a cell moved alone by one site and for
  // two neighbours exchanging x. The design has cells that use one net
  // through two pins, where the per-use rule would count it twice.
  Design d = make_placed_design("aes_360", 0.03);
  ASSERT_TRUE(abacus_legalize(d, {}).success);
  const db::PinTable pins(d);
  detail::SwapMetric metric(pins, detail::SwapMetric::Count::PerNet);
  const RowList rows(d);
  const Dbu total = total_hpwl(d);
  int candidates = 0;
  for (int row = 0; row < rows.num_rows(); ++row) {
    for (InstId a = rows.row_first(row); a != kInvalidId; a = rows.next(a)) {
      Instance& ia = d.netlist.instance(a);
      const Dbu ax = ia.pos.x;
      Dbu before = metric.before(a);
      ia.pos.x += d.floorplan.site_width();
      ASSERT_EQ(metric.after() - before, total_hpwl(d) - total) << "move " << a;
      ia.pos.x = ax;
      const InstId b = rows.next(a);
      if (b == kInvalidId) continue;
      Instance& ib = d.netlist.instance(b);
      before = metric.before(a, b);
      std::swap(ia.pos.x, ib.pos.x);
      ASSERT_EQ(metric.after() - before, total_hpwl(d) - total) << "swap " << a;
      std::swap(ia.pos.x, ib.pos.x);
      ++candidates;
    }
  }
  EXPECT_GT(candidates, 100);
  EXPECT_EQ(metric.total(), total);
}

TEST(SwapPolish, FollowsAbacusRowsAndReportsCachedTotal) {
  // rc_legalize's path: rows linked from Abacus's order, one pin table for
  // every sweep, HPWL read from the sweep's cache. Sweep by sweep it must
  // keep the row list in step with the swaps, report total_hpwl, and keep
  // the swaps the converging polish keeps.
  for (const char* name : {"aes_360", "des3_250", "vga_270"}) {
    Design d = make_placed_design(name, 0.04);
    const AbacusResult ar = abacus_legalize(d, {});
    ASSERT_TRUE(ar.success) << name;
    Design reference = d;
    RowList rows(d, ar.rows);
    ASSERT_TRUE(same_rows(rows, RowList(d))) << name;
    const db::PinTable pins(d);
    int total = 0, sweeps = 0;
    for (; sweeps < 4; ++sweeps) {
      const PolishResult r = swap_polish(d, pins, rows);
      EXPECT_EQ(r.hpwl, total_hpwl(d)) << name << " sweep " << sweeps;
      std::string why;
      ASSERT_TRUE(rows.check(d, &why)) << name << " sweep " << sweeps << ": " << why;
      ASSERT_TRUE(same_rows(rows, RowList(d))) << name << " sweep " << sweeps;
      total += r.accepted;
      if (r.accepted == 0) break;
    }
    EXPECT_GT(total, 0) << name;
    EXPECT_GT(sweeps, 0) << name;
    EXPECT_EQ(swap_polish_converge(reference, 4), total) << name;
    EXPECT_EQ(placement_snapshot(reference), placement_snapshot(d)) << name;
  }
}

// ---------------------------------------------------------------------------
// Nearest admissible pair: binary search vs the linear scan it replaced.
// nearest_pair_of_class below is a verbatim copy of rc_legalize's former
// lookup; snap_row_y is the nearer-row snap both legalizations inlined.
// ---------------------------------------------------------------------------
int nearest_pair_of_class(const Floorplan& fp, const RowAssignment& ra,
                          bool minority, Dbu y, bool any_class = false) {
  int best = -1;
  Dbu best_d = INT64_MAX;
  for (int p = 0; p < fp.num_pairs(); ++p) {
    if (!any_class && ra.is_minority_pair(p) != minority) continue;
    const Dbu d = std::llabs(fp.pair_y_center(p) - y);
    if (d < best_d) {
      best_d = d;
      best = p;
    }
  }
  return best;
}

Dbu snap_row_y(const Floorplan& fp, int p, Dbu yc) {
  const Row& lower = fp.pair_lower(p);
  const Row& upper = fp.pair_upper(p);
  return (std::llabs(lower.y_center() - yc) <= std::llabs(upper.y_center() - yc))
             ? lower.y
             : upper.y;
}

TEST(PairLookup, MatchesLinearScan) {
  auto lib = liberty::library_ref();
  Rng rng(17);
  const double minority_share[] = {0.0, 0.3, 0.7, 1.0};  // 0 and 1: a class is empty
  std::int64_t queries = 0, empty_class = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const int pairs = trial < 8 ? 1 : static_cast<int>(rng.uniform_int(2, 40));
    const Dbu y0 = rng.uniform_int(-5000, 5000);
    Floorplan fp;
    if (trial % 2 == 0) {
      const Dbu h = rng.uniform_int(1, 400);  // odd heights: odd row centres
      fp = Floorplan::make_uniform(Rect{{0, y0}, {5400, y0 + 2 * pairs * h}},
                                   pairs, h, TrackHeight::H6T, 54);
    } else {
      std::vector<TrackHeight> th;
      for (int p = 0; p < pairs; ++p) {
        th.push_back(rng.uniform01() < 0.5 ? TrackHeight::H6T : TrackHeight::H75T);
      }
      fp = Floorplan::make_mixed(Rect{{0, 0}, {5400, 1}}, y0, th, lib->tech(), 54);
    }
    RowAssignment ra = RowAssignment::all_majority(pairs);
    const double share = minority_share[trial % 4];
    for (int p = 0; p < pairs; ++p) {
      ra.pair_is_minority[static_cast<std::size_t>(p)] = rng.uniform01() < share;
    }
    const PairLookup lookup(fp, ra);

    // Every centre and every midpoint of two centres (both roundings),
    // each +-1, plus random points beyond the core on both sides.
    std::vector<Dbu> ys;
    for (int p = 0; p < pairs; ++p) {
      for (int q = p; q < pairs; ++q) {
        const Dbu sum = fp.pair_y_center(p) + fp.pair_y_center(q);
        for (Dbu y : {sum / 2, (sum + 1) / 2}) {
          ys.insert(ys.end(), {y - 1, y, y + 1});
        }
      }
    }
    const Rect core = fp.core();
    for (int k = 0; k < 64; ++k) {
      ys.push_back(rng.uniform_int(core.lo.y - core.height(), core.hi.y + core.height()));
    }

    for (Dbu y : ys) {
      for (bool minority : {false, true}) {
        const int want = nearest_pair_of_class(fp, ra, minority, y);
        const int got = lookup.nearest(minority, y);
        ASSERT_EQ(got, want) << "trial " << trial << " y " << y << " minority "
                             << minority;
        if (want < 0) {
          ++empty_class;
        } else {
          ASSERT_EQ(nearer_row_y(fp, got, y), snap_row_y(fp, want, y));
        }
      }
      ASSERT_EQ(lookup.nearest_any(y), nearest_pair_of_class(fp, ra, false, y, true))
          << "trial " << trial << " y " << y;
      ++queries;
    }
  }
  EXPECT_GT(queries, 100000);
  EXPECT_GT(empty_class, 0);  // the -1 path ran
}

TEST(PairLookup, SinglePairAndEmptyClass) {
  const Floorplan fp = Floorplan::make_uniform(Rect{{0, 0}, {1080, 432}}, 1, 216,
                                               TrackHeight::H6T, 54);
  const RowAssignment ra = RowAssignment::all_majority(1);
  const PairLookup lookup(fp, ra);
  for (Dbu y : {Dbu{-1000}, Dbu{0}, Dbu{216}, Dbu{5000}}) {
    EXPECT_EQ(lookup.nearest(false, y), 0);
    EXPECT_EQ(lookup.nearest(true, y), -1);
    EXPECT_EQ(lookup.nearest_any(y), 0);
  }
  EXPECT_EQ(nearer_row_y(fp, 0, 216 - 108), 0);    // lower row's centre
  EXPECT_EQ(nearer_row_y(fp, 0, 216), 0);          // tie: the lower row
  EXPECT_EQ(nearer_row_y(fp, 0, 216 + 1), 216);
}

// ---------------------------------------------------------------------------
// Abacus's nearest-first row walk vs the bottom-to-top window scan it
// replaced. Everything in namespace parent below is a verbatim copy of the
// old abacus.cpp (its helpers and abacus_legalize). The random floorplans
// are built for ties: targets on the site grid, midway between two rows, on
// a row bottom or a 54-DBU y grid, so rows often cost the same.
// ---------------------------------------------------------------------------
namespace parent {

namespace {

/// A maximal group of abutting cells within one row. Position x minimizes
/// sum of squared deviations from member targets: x = q / e.
struct Cluster {
  double e = 0.0;   ///< total weight
  double q = 0.0;   ///< weighted sum of (target - internal offset)
  Dbu w = 0;        ///< total width
  double x = 0.0;   ///< current optimal left edge
  int first = 0;    ///< index range into RowState::cells
  int last = -1;
};

struct RowState {
  std::vector<InstId> cells;      ///< in placement order
  std::vector<Cluster> clusters;  ///< left to right
  Dbu used = 0;
};

double clamp_cluster_x(double x, const Row& row, Dbu width) {
  const double lo = static_cast<double>(row.x0);
  const double hi = static_cast<double>(row.x1 - width);
  return std::clamp(x, lo, std::max(lo, hi));
}

/// Cost of appending cell (target x, weight, width) to the row; does not
/// mutate. Returns the resulting x of the cell, or false when it can't fit.
bool trial_append(const RowState& rs, const Row& row, double target_x,
                  double weight, Dbu width, double* cell_x_out) {
  if (rs.used + width > row.width()) return false;
  // New cluster from the incoming cell.
  double e = weight;
  double q = weight * target_x;
  Dbu w = width;
  double x = clamp_cluster_x(q / e, row, w);
  // Merge backward over existing clusters while overlapping.
  int k = static_cast<int>(rs.clusters.size()) - 1;
  double offset_of_new = 0.0;  // left offset of the new cell inside the merge
  while (k >= 0) {
    const Cluster& c = rs.clusters[static_cast<std::size_t>(k)];
    if (c.x + static_cast<double>(c.w) <= x) break;
    // Merge c in front: new cell's offset grows by c.w.
    offset_of_new += static_cast<double>(c.w);
    q = c.q + (q - e * static_cast<double>(c.w));
    e += c.e;
    w += c.w;
    x = clamp_cluster_x(q / e, row, w);
    --k;
  }
  *cell_x_out = x + offset_of_new;
  return true;
}

/// Commit the append (same math as trial_append, mutating).
void commit_append(RowState& rs, const Row& row, InstId cell, double target_x,
                   double weight, Dbu width) {
  Cluster nc;
  nc.e = weight;
  nc.q = weight * target_x;
  nc.w = width;
  nc.first = static_cast<int>(rs.cells.size());
  nc.last = nc.first;
  nc.x = clamp_cluster_x(nc.q / nc.e, row, nc.w);
  rs.cells.push_back(cell);
  rs.used += width;
  while (!rs.clusters.empty()) {
    Cluster& prev = rs.clusters.back();
    if (prev.x + static_cast<double>(prev.w) <= nc.x) break;
    // Merge prev + nc.
    Cluster merged;
    merged.e = prev.e + nc.e;
    merged.q = prev.q + (nc.q - nc.e * static_cast<double>(prev.w));
    merged.w = prev.w + nc.w;
    merged.first = prev.first;
    merged.last = nc.last;
    merged.x = clamp_cluster_x(merged.q / merged.e, row, merged.w);
    rs.clusters.pop_back();
    nc = merged;
  }
  rs.clusters.push_back(nc);
}

}  // namespace

AbacusResult abacus_legalize(Design& design, const AbacusOptions& opt) {
  MTH_ASSERT(opt.initial_row_window >= 1,
             "abacus: initial_row_window must be at least 1");
  MTH_ASSERT(std::isfinite(opt.y_weight) && opt.y_weight >= 0.0,
             "abacus: y_weight must be finite and non-negative");
  const Floorplan& fp = design.floorplan;
  const int n = design.netlist.num_instances();
  const int nrows = fp.num_rows();
  AbacusResult res;

  std::vector<Point> start(static_cast<std::size_t>(n));
  for (InstId i = 0; i < n; ++i) start[static_cast<std::size_t>(i)] = design.netlist.instance(i).pos;

  // Scan order: left to right by target x, ties by id. The (x, id) keys
  // sort in exactly that total order.
  std::vector<std::pair<Dbu, InstId>> order(static_cast<std::size_t>(n));
  for (InstId i = 0; i < n; ++i) {
    order[static_cast<std::size_t>(i)] = {start[static_cast<std::size_t>(i)].x, i};
  }
  std::sort(order.begin(), order.end());

  std::vector<RowState> rows(static_cast<std::size_t>(nrows));

  auto row_allowed = [&](InstId cell, const CellMaster& m, int r, const Row& row) {
    if (m.height != row.height) return false;
    if (opt.respect_track_height && m.track_height != row.track_height) return false;
    if (opt.row_filter && !opt.row_filter(cell, r)) return false;
    return true;
  };

  for (const auto& key : order) {
    const InstId cell = key.second;
    const CellMaster& m = design.master_of(cell);
    const Point tgt = start[static_cast<std::size_t>(cell)];
    const double weight = 1.0;  // unit weight (area weighting optional)
    const int r_near = fp.row_at_y(tgt.y);

    int best_row = -1;
    double best_cost = 1e300;
    auto consider = [&](int r) {
      const Row& row = fp.row(r);
      if (!row_allowed(cell, m, r, row)) return;
      const double y_cost =
          opt.y_weight * std::abs(static_cast<double>(row.y - tgt.y));
      if (y_cost >= best_cost) return;  // lower bound prune
      double x_placed;
      if (!trial_append(rows[static_cast<std::size_t>(r)], row,
                        static_cast<double>(tgt.x), weight, m.width, &x_placed)) {
        return;
      }
      const double cost = std::abs(x_placed - static_cast<double>(tgt.x)) + y_cost;
      if (cost < best_cost) {
        best_cost = cost;
        best_row = r;
      }
    };
    // The window doubles until a row accepts the cell. A widened window
    // scans only the rows it adds, bottom to top: each row of the previous
    // window rejected the cell, and would again — no row state changes
    // during one cell's search, and best_cost only falls, which never
    // turns a rejection into an acceptance — so the rows the full scan
    // would accept, and their order, are the same.
    int lo = r_near + 1;  // rows [lo, hi] are scanned; none yet
    int hi = r_near;
    for (int window = opt.initial_row_window; window <= 2 * nrows; window *= 2) {
      const int new_lo = std::max(0, r_near - window);
      const int new_hi = std::min(nrows - 1, r_near + window);
      for (int r = new_lo; r < lo; ++r) consider(r);
      for (int r = hi + 1; r <= new_hi; ++r) consider(r);
      lo = new_lo;
      hi = new_hi;
      if (best_row >= 0) break;
      if (window >= nrows) break;
    }
    if (best_row < 0) {
      MTH_WARN << "abacus: no feasible row for " << design.netlist.instance(cell).name;
      return res;  // success == false
    }
    commit_append(rows[static_cast<std::size_t>(best_row)], fp.row(best_row), cell,
                  static_cast<double>(tgt.x), weight, m.width);
  }

  // Materialize positions: cluster x snapped down to the site grid; member
  // cells packed left to right (widths are site multiples, so snapping
  // preserves non-overlap).
  const Dbu site = fp.site_width();
  for (int r = 0; r < nrows; ++r) {
    const Row& row = fp.row(r);
    RowState& rs = rows[static_cast<std::size_t>(r)];
    for (const Cluster& c : rs.clusters) {
      Dbu x = snap_down(static_cast<Dbu>(std::llround(c.x)) - row.x0, site) + row.x0;
      x = std::max(x, row.x0);
      if (x + c.w > row.x1) x = snap_down(row.x1 - c.w - row.x0, site) + row.x0;
      for (int k = c.first; k <= c.last; ++k) {
        const InstId cell = rs.cells[static_cast<std::size_t>(k)];
        design.netlist.instance(cell).pos = {x, row.y};
        x += design.master_of(cell).width;
      }
    }
  }

  res.success = true;
  for (InstId i = 0; i < n; ++i) {
    const Dbu d = manhattan(start[static_cast<std::size_t>(i)],
                            design.netlist.instance(i).pos);
    res.total_displacement += d;
    res.max_displacement = std::max(res.max_displacement, d);
  }
  return res;
}

}  // namespace parent

struct AbacusTrial {
  Design design;
  AbacusOptions opt;
  std::vector<char> allowed;  ///< random filter table, cell * rows + row
};

AbacusTrial random_abacus_trial(Rng& rng, int trial) {
  auto lib = liberty::library_ref();
  const Tech& tech = lib->tech();
  constexpr Dbu kSite = 54;
  AbacusTrial t;
  Design& d = t.design;
  d.library = lib;
  const int pairs = static_cast<int>(rng.uniform_int(1, 10));
  const Dbu x0 = rng.uniform_int(-20, 20) * kSite + (trial % 3 == 0 ? 0 : rng.uniform_int(0, 53));
  const Dbu sites = rng.uniform_int(3, 40);
  const Dbu y0 = rng.uniform_int(-1000, 1000);
  const bool mixed = trial % 2 == 1;
  if (mixed) {
    std::vector<TrackHeight> th;
    for (int p = 0; p < pairs; ++p) {
      th.push_back(rng.chance(0.5) ? TrackHeight::H6T : TrackHeight::H75T);
    }
    d.floorplan = Floorplan::make_mixed(Rect{{x0, 0}, {x0 + sites * kSite, 1}}, y0,
                                        th, tech, kSite);
  } else {
    d.floorplan = Floorplan::make_uniform(
        Rect{{x0, y0}, {x0 + sites * kSite, y0 + 2 * pairs * tech.row_height_6t}},
        pairs, tech.row_height_6t, TrackHeight::H6T, kSite);
  }
  const Floorplan& fp = d.floorplan;
  const int nrows = fp.num_rows();

  // Masters of each height the floorplan has.
  std::vector<int> masters;
  for (int m = 0; m < lib->num_masters(); ++m) {
    const CellMaster& cm = lib->master(m);
    bool fits = false;
    for (int r = 0; r < nrows; ++r) fits = fits || fp.row(r).height == cm.height;
    if (fits && cm.width <= 4 * kSite) masters.push_back(m);
  }
  // The filter first: it sets the share of the rows a cell may use, and
  // the fill below is a share of that. Most trials fill 30–90% of it; one in
  // eight fills 95–105%, which pushes clusters against the right edge and
  // sometimes makes both versions fail.
  AbacusOptions& opt = t.opt;
  const int filter = static_cast<int>(rng.uniform_int(0, 3));
  const double table_p = rng.chance(0.5) ? 0.3 : 0.7;
  const double shares[] = {1.0, table_p, 0.2, 0.6};
  const double fill = shares[filter] * (trial % 8 == 0 ? 0.95 + 0.1 * rng.uniform01()
                                                       : 0.3 + 0.6 * rng.uniform01());
  const Dbu capacity = static_cast<Dbu>(nrows) * sites * kSite;
  Dbu used = 0;
  const Rect core = fp.core();
  while (used < static_cast<Dbu>(fill * static_cast<double>(capacity))) {
    const int m = masters[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(masters.size()) - 1))];
    used += lib->master(m).width;
    Dbu x;
    switch (rng.uniform_int(0, 3)) {
      case 0: x = rng.uniform_int(core.lo.x - 3 * kSite, core.hi.x + 3 * kSite); break;
      case 1: x = core.lo.x + rng.uniform_int(0, sites) * kSite; break;
      case 2: x = core.hi.x - rng.uniform_int(0, 4) * kSite; break;  // crowd the right end
      default: x = core.lo.x + rng.uniform_int(0, 2 * sites) * (kSite / 2); break;
    }
    const int r = static_cast<int>(rng.uniform_int(0, nrows - 1));
    Dbu y;
    switch (rng.uniform_int(0, 3)) {
      case 0: y = rng.uniform_int(core.lo.y - 300, core.hi.y + 300); break;
      case 1:  // midway between two row bottoms (every bottom here is even)
        y = r + 1 < nrows ? (fp.row(r).y + fp.row(r + 1).y) / 2 : fp.row(r).y;
        break;
      case 2: y = fp.row(r).y; break;
      default: y = core.lo.y + rng.uniform_int(-4, 60) * kSite; break;
    }
    d.netlist.add_instance("c" + std::to_string(d.netlist.num_instances()), m, {x, y});
  }

  const int n = d.netlist.num_instances();
  switch (filter) {
    case 0: break;
    case 1:  // random table
      t.allowed.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(nrows));
      for (char& a : t.allowed) a = rng.chance(table_p) ? 1 : 0;
      break;
    case 2:  // sparse: one row in five per cell, so windows widen
      opt.row_filter = [](InstId cell, int row) { return (row + cell) % 5 == 0; };
      break;
    default:  // two classes, as the row assignment makes them
      opt.row_filter = [](InstId cell, int row) {
        return cell % 3 == 0 ? row % 4 < 2 : row % 4 >= 2;
      };
      break;
  }
  opt.respect_track_height = mixed && rng.chance(0.5);
  const double weights[] = {0.0, 1.0, 1.0, 0.37, 4.0};
  opt.y_weight = weights[rng.uniform_int(0, 4)];
  // Up to 2 * rows: larger windows made the old code search no row at all
  // (Abacus.WindowsBeyondTheRowCountSearchEveryRow).
  const int windows[] = {1, 1, 4, 4, 2, 3, nrows, 2 * nrows};
  opt.initial_row_window = windows[rng.uniform_int(0, 7)];
  return t;
}

TEST(Abacus, MatchesParentOnRandomFloorplans) {
  // Both versions warn once per failed trial; keep the log readable.
  const LogLevel level = log_level();
  set_log_level(LogLevel::Error);
  Rng rng(29);
  int succeeded = 0, failed = 0, widened = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    AbacusTrial t = random_abacus_trial(rng, trial);
    if (!t.allowed.empty()) {
      const int nrows = t.design.floorplan.num_rows();
      const std::vector<char>* allowed = &t.allowed;
      t.opt.row_filter = [allowed, nrows](InstId cell, int row) {
        return (*allowed)[static_cast<std::size_t>(cell) * static_cast<std::size_t>(nrows) +
                          static_cast<std::size_t>(row)] != 0;
      };
    }
    Design want = t.design;
    Design got = t.design;
    const AbacusResult rw = parent::abacus_legalize(want, t.opt);
    const AbacusResult rg = abacus_legalize(got, t.opt);
    ASSERT_EQ(rg.success, rw.success) << "trial " << trial;
    ASSERT_EQ(placement_snapshot(got), placement_snapshot(want)) << "trial " << trial;
    ASSERT_EQ(rg.total_displacement, rw.total_displacement) << "trial " << trial;
    ASSERT_EQ(rg.max_displacement, rw.max_displacement) << "trial " << trial;
    if (!rg.success) {
      EXPECT_TRUE(rg.rows.empty());
      ++failed;
      continue;
    }
    ++succeeded;
    if (t.opt.initial_row_window == 1 && t.opt.row_filter) ++widened;
    // The row order Abacus hands back links the same list a fresh build
    // makes from positions.
    const RowList linked(got, rg.rows);
    std::string why;
    ASSERT_TRUE(linked.check(got, &why)) << "trial " << trial << ": " << why;
    ASSERT_TRUE(same_rows(linked, RowList(got))) << "trial " << trial;
  }
  set_log_level(level);
  EXPECT_GT(succeeded, 1500);
  EXPECT_GT(failed, 100);
  EXPECT_GT(widened, 100);
}

TEST(Abacus, WindowsBeyondTheRowCountSearchEveryRow) {
  // A window at or above the row count already reaches every row; larger
  // ones used to skip the search altogether (no row for any cell).
  Design d = make_placed_design("aes_360", 0.04);
  const int nrows = d.floorplan.num_rows();
  ASSERT_TRUE(abacus_legalize(d, {}).success);  // now legal
  for (const bool filtered : {false, true}) {
    AbacusOptions ref;
    ref.initial_row_window = nrows;
    if (filtered) {
      ref.row_filter = [](InstId cell, int row) { return (row + cell) % 7 == 0; };
    }
    Design want = d;
    const AbacusResult rw = abacus_legalize(want, ref);
    ASSERT_TRUE(rw.success);
    if (!filtered) {
      EXPECT_EQ(rw.total_displacement, 0);  // already legal
    }
    for (const int window : {2 * nrows, 2 * nrows + 1, 1000,
                             std::numeric_limits<int>::max()}) {
      AbacusOptions opt = ref;
      opt.initial_row_window = window;
      Design got = d;
      const AbacusResult rg = abacus_legalize(got, opt);
      EXPECT_TRUE(rg.success) << "window " << window;
      EXPECT_EQ(rg.total_displacement, rw.total_displacement) << "window " << window;
      EXPECT_EQ(placement_snapshot(got), placement_snapshot(want)) << "window " << window;
    }
  }
}

// Parameterized legality sweep across testcases and seeds.
class AbacusSweep
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(AbacusSweep, LegalAndBounded) {
  const auto [name, seed] = GetParam();
  Design d = make_placed_design(name, 0.03, static_cast<std::uint64_t>(seed));
  const auto snap = placement_snapshot(d);
  const auto r = abacus_legalize(d, {});
  ASSERT_TRUE(r.success);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;
  // Legalization from a spread global placement moves each cell a bounded
  // distance on average (< 8 row heights here, generous).
  const double avg =
      static_cast<double>(total_displacement(d, snap)) / d.netlist.num_instances();
  EXPECT_LT(avg, 8.0 * 270.0) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AbacusSweep,
    ::testing::Combine(::testing::Values("aes_320", "ldpc_350", "vga_270"),
                       ::testing::Values(1, 2)));

// ---------------------------------------------------------------------------
// Placement pin: an FNV-1a hash over every instance position (plus the
// routine's reported numbers) after each legalization entry point, on four
// small synthetic designs. The values were recorded from the legalizer
// before its fast paths were added; any change of a cell's final position,
// of an accepted swap or of a row choice shows here. The trace counters of
// the polish and of the median pulls are pinned alongside.
// ---------------------------------------------------------------------------
struct PinCase {
  Design mlef;  ///< mLEF space, uniform floorplan, global placement
  std::shared_ptr<MlefTransform> transform;
};

PinCase make_pin_case(const char* name, double scale, std::uint64_t seed) {
  auto lib = liberty::library_ref();
  synth::GeneratorOptions gen;
  gen.scale = scale;
  gen.seed = seed;
  PinCase pc;
  pc.mlef = synth::generate_testcase(synth::spec_by_name(name), lib, gen).design;
  double minority_area = 0, total = 0;
  for (InstId i = 0; i < pc.mlef.netlist.num_instances(); ++i) {
    const double a = static_cast<double>(pc.mlef.master_of(i).area());
    total += a;
    if (pc.mlef.is_minority(i)) minority_area += a;
  }
  pc.transform = std::make_shared<MlefTransform>(lib, minority_area / total);
  pc.transform->to_mlef(pc.mlef);
  place::build_uniform_floorplan(pc.mlef, 0.6, 1.0);
  place::GlobalPlaceOptions gp;
  gp.max_iterations = 10;
  gp.seed = seed;
  place::global_place(pc.mlef, gp);
  return pc;
}

/// Evenly spread minority pairs with room for the minority cells at either
/// library's widths (70% fill).
RowAssignment spread_assignment(const PinCase& pc) {
  const Design& d = pc.mlef;
  Dbu demand_mlef = 0, demand_orig = 0;
  for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
    if (!d.is_minority(i)) continue;
    const std::int32_t m = d.netlist.instance(i).master;
    demand_mlef += pc.transform->mlef_library()->master(m).width;
    demand_orig += pc.transform->original_library()->master(m).width;
  }
  const int pairs = d.floorplan.num_pairs();
  const double cap = 0.7 * static_cast<double>(d.floorplan.pair_capacity());
  const int n_min = std::clamp(
      static_cast<int>(std::ceil(
          static_cast<double>(std::max(demand_mlef, demand_orig)) / cap)),
      1, pairs - 1);
  RowAssignment ra = RowAssignment::all_majority(pairs);
  for (int p = 0; p < pairs; ++p) {
    ra.pair_is_minority[static_cast<std::size_t>(p)] =
        (p * n_min) / pairs != ((p + 1) * n_min) / pairs;
  }
  return ra;
}

std::uint64_t placement_hash(const Design& d, std::initializer_list<std::int64_t> extra) {
  std::uint64_t h = 14695981039346656037ull;
  auto feed = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const Instance& inst : d.netlist.instances()) {
    feed(static_cast<std::uint64_t>(inst.pos.x));
    feed(static_cast<std::uint64_t>(inst.pos.y));
  }
  for (std::int64_t v : extra) feed(static_cast<std::uint64_t>(v));
  return h;
}

std::uint64_t abacus_hash(Design d, const AbacusOptions& opt) {
  const AbacusResult r = abacus_legalize(d, opt);
  EXPECT_TRUE(r.success);
  return placement_hash(d, {r.success ? 1 : 0, r.total_displacement,
                            r.max_displacement});
}

/// Hashes, in order: Abacus default / row_filter / respect_track_height /
/// forced widening, rc_legalize enforcing / ignoring the assignment,
/// swap_polish_converge; then the counters legal/polish_candidates and
/// legal/polish_accepted, two retired slots, and legal/pull_moves, summed
/// over the rc_legalize and polish runs.
///
/// The retired slots held the move and recompute counters of an incremental
/// HPWL engine these routines once ran. The engine is gone and nothing
/// counts under kernel/ any more, so slot 9 holds the number of kernel/
/// counters and slot 10 their sum, both 0. The pulls rc_legalize made
/// through the engine are the ones legal/pull_moves counts now, so that
/// slot holds the values the engine's move counter read before.
using PlacementPin = std::array<std::uint64_t, 12>;

PlacementPin pin_of(const PinCase& pc) {
  PlacementPin pin{};
  const Design& d0 = pc.mlef;
  const RowAssignment ra = spread_assignment(pc);

  pin[0] = abacus_hash(d0, {});

  AbacusOptions filtered;
  filtered.row_filter = [&d0, &ra](InstId cell, int row) {
    return d0.is_minority(cell) == ra.is_minority_row(row);
  };
  pin[1] = abacus_hash(d0, filtered);

  // Original library on a mixed floorplan whose 7.5T pairs follow `ra`.
  Design mixed = d0;
  pc.transform->revert(mixed);
  std::vector<TrackHeight> pair_th;
  for (int p = 0; p < ra.num_pairs(); ++p) {
    pair_th.push_back(ra.is_minority_pair(p) ? TrackHeight::H75T : TrackHeight::H6T);
  }
  const Rect core = d0.floorplan.core();
  mixed.floorplan = Floorplan::make_mixed(
      Rect{{core.lo.x, 0}, {core.hi.x, 1}}, core.lo.y, pair_th,
      mixed.library->tech(), d0.floorplan.site_width());
  AbacusOptions track;
  track.respect_track_height = true;
  pin[2] = abacus_hash(mixed, track);

  // One row in seven per cell class, from a one-row window: most cells
  // widen their search once or twice.
  AbacusOptions sparse;
  sparse.initial_row_window = 1;
  sparse.row_filter = [](InstId cell, int row) { return (row + cell) % 7 == 0; };
  pin[3] = abacus_hash(d0, sparse);

  trace::Collector collector;
  {
    trace::SinkScope scope(&collector);
    Design on = d0;
    const rap::RcLegalResult r_on = rap::rc_legalize(on, ra);
    EXPECT_TRUE(r_on.success);
    pin[4] = placement_hash(on, {r_on.success ? 1 : 0, r_on.passes_used,
                                 r_on.hpwl_before, r_on.hpwl_after});

    Design off = d0;
    rap::RcLegalOptions unconstrained;
    unconstrained.enforce_assignment = false;
    const rap::RcLegalResult r_off = rap::rc_legalize(
        off, RowAssignment::all_majority(ra.num_pairs()), unconstrained);
    EXPECT_TRUE(r_off.success);
    pin[5] = placement_hash(off, {r_off.success ? 1 : 0, r_off.passes_used,
                                  r_off.hpwl_before, r_off.hpwl_after});

    Design polished = d0;
    abacus_legalize(polished, {});
    const int swaps = swap_polish_converge(polished);
    pin[6] = placement_hash(polished, {swaps});
  }
  const auto counters = collector.counters();
  auto counter = [&counters](const char* name) -> std::uint64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : static_cast<std::uint64_t>(it->second);
  };
  pin[7] = counter("legal/polish_candidates");
  pin[8] = counter("legal/polish_accepted");
  for (const auto& [name, value] : counters) {
    if (name.rfind("kernel/", 0) != 0) continue;
    pin[9] += 1;
    pin[10] += static_cast<std::uint64_t>(value);
  }
  pin[11] = counter("legal/pull_moves");
  return pin;
}

std::string format_pin(const PlacementPin& pin) {
  std::string out = "{";
  char buf[32];
  for (std::size_t k = 0; k < pin.size(); ++k) {
    std::snprintf(buf, sizeof buf, k < 7 ? "0x%016llxull" : "%llu",
                  static_cast<unsigned long long>(pin[k]));
    out += (k == 0 ? "" : ", ");
    out += buf;
  }
  return out + "}";
}

TEST(Legal, MatchesParentPlacements) {
  struct Want {
    const char* name;
    double scale;
    std::uint64_t seed;
    PlacementPin pin;
  };
  const Want cases[] = {
      {"aes_360", 0.06, 3,  // 768 cells, 22 pairs
       {0x8fab7ee53711a191ull, 0x97592e1204bcd649ull, 0x5e47d5ad4ce19e02ull,
        0xc881e31f888973c4ull, 0xb0d227b055eea3c6ull, 0x7dca03a17c841b80ull,
        0x2deccdef12e3c534ull, 8727, 3877, 0, 0, 4608}},
      {"des3_250", 0.04, 5,  // 2266 cells, 39 pairs
       {0x716ca1e3020e62a6ull, 0x967f8cab16332ddeull, 0x2961b694eeedc60aull,
        0x749f5abfde773814ull, 0x0c1f46ec0fcd86b2ull, 0x507ed6be18096b4dull,
        0x09b858dc3419551bull, 26327, 14272, 0, 0, 13596}},
      {"ldpc_350", 0.05, 7,  // 2129 cells, 37 pairs
       {0xb68442b78ca1b19full, 0x7106a37d78da1dcbull, 0xa03cb158184ce05aull,
        0xcca165aab0ae57c8ull, 0xd20b36b4aa698214ull, 0x86f052afff5380a3ull,
        0xacf46d99f7d65435ull, 24702, 12846, 0, 0, 12774}},
      {"vga_270", 0.04, 11,  // 2952 cells, 43 pairs
       {0x1bb37930f4f8be97ull, 0x64fcc598a92569f3ull, 0xe8572e341ace3095ull,
        0xf6765b12068b24a2ull, 0xb91a2daabbc0cdaeull, 0x6be86a830fe346e7ull,
        0x092a9895c4d1d551ull, 34467, 19917, 0, 0, 17712}},
  };
  for (const Want& w : cases) {
    const PlacementPin got = pin_of(make_pin_case(w.name, w.scale, w.seed));
    EXPECT_EQ(got, w.pin) << w.name << ": got " << format_pin(got);
  }
}

}  // namespace
}  // namespace mth::legal
