// Global placement tests: floorplan construction, port pinning, density
// spreading, wirelength sanity vs random placement.

#include <gtest/gtest.h>

#include "mth/db/metrics.hpp"
#include "mth/db/mlef.hpp"
#include "mth/legal/abacus.hpp"
#include "mth/liberty/asap7.hpp"
#include "mth/place/placer.hpp"
#include "mth/synth/generator.hpp"
#include "mth/util/error.hpp"
#include "mth/util/rng.hpp"

namespace mth::place {
namespace {

Design prepared_mlef_design(const char* name, double scale, double util = 0.6) {
  auto lib = liberty::library_ref();
  synth::GeneratorOptions gen;
  gen.scale = scale;
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
  EXPECT_EQ(placement_snapshot(d), before);  // rejected before any move
  GlobalPlaceOptions one;
  one.max_iterations = 1;
  global_place(d, one);
  const Rect core = d.floorplan.core();
  for (const Instance& inst : d.netlist.instances()) {
    EXPECT_TRUE(core.contains(inst.pos)) << inst.name;
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
