// Design database tests: tech, library invariants, netlist structure,
// floorplan geometry, metrics (HPWL / displacement / legality).

#include <gtest/gtest.h>

#include "mth/db/design.hpp"
#include "mth/db/metrics.hpp"
#include "mth/db/rowassign.hpp"
#include "mth/liberty/asap7.hpp"

namespace mth {
namespace {

Design make_tiny_design() {
  // Two instances on a 2-pair uniform floorplan, one net between them.
  Design d;
  d.name = "tiny";
  d.library = liberty::library_ref();
  const Tech& tech = d.library->tech();
  const int inv = find_asap7_master(*d.library, CellFunc::Inv, 1,
                                    TrackHeight::H6T, Vt::RVT);
  const int nand2 = find_asap7_master(*d.library, CellFunc::Nand2, 1,
                                      TrackHeight::H6T, Vt::RVT);
  const InstId a = d.netlist.add_instance("a", inv, {0, 0});
  const InstId b = d.netlist.add_instance("b", nand2, {540, 216});
  const PortId pin = d.netlist.add_port("in", {0, 0}, true);
  const PortId pout = d.netlist.add_port("out", {2000, 800}, false);

  NetId n0 = d.netlist.add_net("n0");
  d.netlist.connect(n0, {kInvalidId, pin});
  d.netlist.connect(n0, {a, 0});
  NetId n1 = d.netlist.add_net("n1");
  d.netlist.connect(n1, {a, d.library->master(inv).output_pin()});
  d.netlist.connect(n1, {b, 0});
  NetId n2 = d.netlist.add_net("n2");
  d.netlist.connect(n2, {b, d.library->master(nand2).output_pin()});
  d.netlist.connect(n2, {kInvalidId, pout});

  d.floorplan = Floorplan::make_uniform(Rect{{0, 0}, {5400, 864}}, 2,
                                        tech.row_height_6t, TrackHeight::H6T,
                                        tech.site_width);
  return d;
}

TEST(Tech, DefaultsAreConsistent) {
  Tech t;
  EXPECT_NO_THROW(t.check());
  EXPECT_EQ(t.row_height(TrackHeight::H6T), 216);
  EXPECT_EQ(t.row_height(TrackHeight::H75T), 270);
  EXPECT_LT(t.row_height_6t, t.row_height_75t);
}

TEST(Tech, CheckRejectsBadHeights) {
  Tech t;
  t.row_height_75t = t.row_height_6t;  // must be strictly taller
  EXPECT_THROW(t.check(), Error);
}

TEST(Netlist, StructureAndCheck) {
  Design d = make_tiny_design();
  EXPECT_EQ(d.netlist.num_instances(), 2);
  EXPECT_EQ(d.netlist.num_nets(), 3);
  EXPECT_EQ(d.netlist.num_ports(), 2);
  EXPECT_NO_THROW(d.check());
}

TEST(Netlist, DriverMustBeFirst) {
  Design d = make_tiny_design();
  NetId bad = d.netlist.add_net("bad");
  // Sink first (instance input pin), driver second.
  d.netlist.connect(bad, {1, 0});
  const int out = d.library->master(d.netlist.instance(0).master).output_pin();
  d.netlist.connect(bad, {0, out});
  EXPECT_THROW(d.netlist.check(*d.library), Error);
}

TEST(Netlist, MultipleDriversRejected) {
  Design d = make_tiny_design();
  NetId bad = d.netlist.add_net("bad2");
  const int out0 = d.library->master(d.netlist.instance(0).master).output_pin();
  const int out1 = d.library->master(d.netlist.instance(1).master).output_pin();
  d.netlist.connect(bad, {0, out0});
  d.netlist.connect(bad, {1, out1});
  EXPECT_THROW(d.netlist.check(*d.library), Error);
}

TEST(Netlist, EmptyNetRejected) {
  Design d = make_tiny_design();
  d.netlist.add_net("empty");
  EXPECT_THROW(d.netlist.check(*d.library), Error);
}

TEST(Netlist, InstUsesReverseIndex) {
  Design d = make_tiny_design();
  const auto& uses = d.netlist.inst_uses();
  ASSERT_EQ(uses.size(), 2u);
  EXPECT_EQ(uses[0].size(), 2u);  // instance a touches n0 and n1
  EXPECT_EQ(uses[1].size(), 2u);  // instance b touches n1 and n2
}

TEST(Netlist, InstUsesInvalidatedByEdits) {
  Design d = make_tiny_design();
  (void)d.netlist.inst_uses();
  const InstId c = d.netlist.add_instance(
      "c", d.netlist.instance(0).master, {1080, 0});
  const auto& uses = d.netlist.inst_uses();
  ASSERT_EQ(uses.size(), 3u);
  EXPECT_TRUE(uses[static_cast<std::size_t>(c)].empty());
}

TEST(Netlist, PinPositionIncludesOffset) {
  Design d = make_tiny_design();
  const Instance& a = d.netlist.instance(0);
  const CellMaster& m = d.library->master(a.master);
  const Point p = d.netlist.pin_position({0, 0}, *d.library);
  EXPECT_EQ(p, a.pos + m.pins[0].offset);
}

TEST(Floorplan, UniformLayout) {
  const Floorplan& fp = make_tiny_design().floorplan;
  EXPECT_EQ(fp.num_rows(), 4);
  EXPECT_EQ(fp.num_pairs(), 2);
  EXPECT_EQ(fp.row(0).y, 0);
  EXPECT_EQ(fp.row(1).y, 216);
  EXPECT_EQ(fp.pair_upper(1).y_top(), 864);
  EXPECT_EQ(fp.pair_y_center(0), 216);
  EXPECT_EQ(fp.sites_per_row(), 100);
}

TEST(Floorplan, RowAtY) {
  const Floorplan& fp = make_tiny_design().floorplan;
  EXPECT_EQ(fp.row_at_y(0), 0);
  EXPECT_EQ(fp.row_at_y(215), 0);
  EXPECT_EQ(fp.row_at_y(216), 1);
  EXPECT_EQ(fp.row_at_y(863), 3);
  EXPECT_EQ(fp.row_at_y(-50), 0);     // clamped
  EXPECT_EQ(fp.row_at_y(100000), 3);  // clamped
}

TEST(Floorplan, MixedHeights) {
  Tech tech;
  const Floorplan fp = Floorplan::make_mixed(
      Rect{{0, 0}, {1080, 1}}, 0,
      {TrackHeight::H6T, TrackHeight::H75T, TrackHeight::H6T}, tech, 54);
  EXPECT_EQ(fp.num_pairs(), 3);
  EXPECT_EQ(fp.row(0).height, 216);
  EXPECT_EQ(fp.row(2).height, 270);
  EXPECT_EQ(fp.pair_track_height(1), TrackHeight::H75T);
  EXPECT_EQ(fp.core().height(), 2 * 216 + 2 * 270 + 2 * 216);
  // Rows stacked gap-free.
  EXPECT_EQ(fp.row(2).y, 432);
  EXPECT_EQ(fp.row(4).y, 432 + 540);
}

TEST(Floorplan, RowAtYMixedBinarySearch) {
  Tech tech;
  std::vector<TrackHeight> ths(10, TrackHeight::H6T);
  ths[3] = ths[7] = TrackHeight::H75T;
  const Floorplan fp =
      Floorplan::make_mixed(Rect{{0, 0}, {1080, 1}}, 0, ths, tech, 54);
  for (int r = 0; r < fp.num_rows(); ++r) {
    EXPECT_EQ(fp.row_at_y(fp.row(r).y), r);
    EXPECT_EQ(fp.row_at_y(fp.row(r).y_top() - 1), r);
  }
}

TEST(Metrics, NetAndTotalHpwl) {
  Design d = make_tiny_design();
  Dbu sum = 0;
  for (NetId n = 0; n < d.netlist.num_nets(); ++n) sum += net_hpwl(d, n);
  EXPECT_EQ(total_hpwl(d), sum);
  EXPECT_GT(sum, 0);
}

TEST(Metrics, ClockNetExcludedFromHpwl) {
  Design d = make_tiny_design();
  const NetId n1 = 1;
  const Dbu before = net_hpwl(d, n1);
  EXPECT_GT(before, 0);
  d.netlist.net(n1).is_clock = true;
  EXPECT_EQ(net_hpwl(d, n1), 0);
}

TEST(Metrics, DisplacementTracksMoves) {
  Design d = make_tiny_design();
  const auto snap = placement_snapshot(d);
  EXPECT_EQ(total_displacement(d, snap), 0);
  d.netlist.instance(0).pos.x += 108;
  d.netlist.instance(1).pos.y += 216;
  EXPECT_EQ(total_displacement(d, snap), 108 + 216);
}

TEST(Metrics, OverlapDetection) {
  Design d = make_tiny_design();
  EXPECT_EQ(count_overlaps(d), 0);
  d.netlist.instance(1).pos = d.netlist.instance(0).pos;  // stack them
  EXPECT_GT(count_overlaps(d), 0);
}

TEST(Metrics, LegalityChecks) {
  Design d = make_tiny_design();
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;

  Design off_grid = make_tiny_design();
  off_grid.netlist.instance(0).pos.x = 1;  // not a site multiple
  EXPECT_FALSE(placement_is_legal(off_grid));

  Design off_row = make_tiny_design();
  off_row.netlist.instance(0).pos.y = 100;  // between rows
  EXPECT_FALSE(placement_is_legal(off_row));

  Design outside = make_tiny_design();
  outside.netlist.instance(0).pos.x = -108;
  EXPECT_FALSE(placement_is_legal(outside));
}

TEST(Metrics, TrackHeightMismatchFlagged) {
  Design d = make_tiny_design();
  // Swap instance 0 to a 7.5T master: its height no longer matches 6T rows.
  d.netlist.instance(0).master = find_asap7_master(
      *d.library, CellFunc::Inv, 1, TrackHeight::H75T, Vt::RVT);
  std::string why;
  EXPECT_FALSE(placement_is_legal(d, &why, /*require_track_match=*/true));
  EXPECT_NE(why.find("height"), std::string::npos);
}

TEST(Design, MinorityCountAndWidths) {
  Design d = make_tiny_design();
  EXPECT_EQ(d.num_minority(), 0);
  d.netlist.instance(1).master = find_asap7_master(
      *d.library, CellFunc::Nand2, 2, TrackHeight::H75T, Vt::LVT);
  EXPECT_EQ(d.num_minority(), 1);
  EXPECT_GT(d.total_width(TrackHeight::H75T), 0);
  EXPECT_GT(d.total_cell_area(), 0);
}

TEST(RowAssignment, Basics) {
  RowAssignment ra = RowAssignment::all_majority(5);
  EXPECT_EQ(ra.num_pairs(), 5);
  EXPECT_EQ(ra.num_minority(), 0);
  ra.pair_is_minority[2] = true;
  EXPECT_EQ(ra.num_minority(), 1);
  EXPECT_TRUE(ra.is_minority_row(4));   // row 4 -> pair 2
  EXPECT_TRUE(ra.is_minority_row(5));
  EXPECT_FALSE(ra.is_minority_row(3));
}

}  // namespace
}  // namespace mth
