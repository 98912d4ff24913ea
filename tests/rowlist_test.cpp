// RowList property tests: the doubly-linked row structure is driven through
// randomized swap_adjacent sequences in lockstep with a brute-force
// vector-of-rows model, asserting structural equality and the full check()
// invariant set after every step. Also covers the linked-list
// detailed-placement improver built on top of it.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "mth/db/metrics.hpp"
#include "mth/db/mlef.hpp"
#include "mth/flows/flow.hpp"
#include "mth/legal/abacus.hpp"
#include "mth/legal/improve.hpp"
#include "mth/legal/rowlist.hpp"
#include "mth/liberty/asap7.hpp"
#include "mth/place/placer.hpp"
#include "mth/synth/generator.hpp"
#include "mth/trace/collector.hpp"
#include "mth/util/error.hpp"

namespace mth::legal {
namespace {

Design make_placed_design(const char* name, double scale,
                          std::uint64_t seed = 7) {
  auto lib = liberty::library_ref();
  synth::GeneratorOptions gen;
  gen.scale = scale;
  gen.seed = seed;
  Design d =
      synth::generate_testcase(synth::spec_by_name(name), lib, gen).design;
  double minority_area = 0, total = 0;
  for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
    const double a = static_cast<double>(d.master_of(i).area());
    total += a;
    if (d.is_minority(i)) minority_area += a;
  }
  static std::vector<std::shared_ptr<MlefTransform>> keep_alive;
  keep_alive.push_back(
      std::make_shared<MlefTransform>(lib, minority_area / total));
  keep_alive.back()->to_mlef(d);
  place::build_uniform_floorplan(d, 0.6, 1.0);
  place::GlobalPlaceOptions gp;
  gp.max_iterations = 10;
  place::global_place(d, gp);
  abacus_legalize(d, {});
  return d;
}

/// Brute-force reference: rows as plain vectors, built the slow way.
std::vector<std::vector<InstId>> model_of(const Design& d) {
  const Netlist& nl = d.netlist;
  std::vector<std::vector<InstId>> rows(
      static_cast<std::size_t>(d.floorplan.num_rows()));
  for (InstId i = 0; i < nl.num_instances(); ++i) {
    rows[static_cast<std::size_t>(d.floorplan.row_at_y(nl.instance(i).pos.y))]
        .push_back(i);
  }
  for (auto& row : rows) {
    std::sort(row.begin(), row.end(), [&](InstId a, InstId b) {
      const Dbu xa = nl.instance(a).pos.x;
      const Dbu xb = nl.instance(b).pos.x;
      return xa != xb ? xa < xb : a < b;
    });
  }
  return rows;
}

/// Full structural comparison: chains, ends, links and row_of must agree
/// with the model exactly, in both directions.
void expect_matches_model(const RowList& rows,
                          const std::vector<std::vector<InstId>>& model) {
  ASSERT_EQ(rows.num_rows(), static_cast<int>(model.size()));
  for (int r = 0; r < rows.num_rows(); ++r) {
    const std::vector<InstId>& m = model[static_cast<std::size_t>(r)];
    EXPECT_EQ(rows.row_first(r), m.empty() ? kInvalidId : m.front());
    EXPECT_EQ(rows.row_last(r), m.empty() ? kInvalidId : m.back());
    InstId i = rows.row_first(r);
    for (std::size_t k = 0; k < m.size(); ++k, i = rows.next(i)) {
      ASSERT_EQ(i, m[k]) << "chain diverges from model in row " << r;
      EXPECT_EQ(rows.pred(i), k > 0 ? m[k - 1] : kInvalidId);
      EXPECT_EQ(rows.row_of(i), r);
    }
    EXPECT_EQ(i, kInvalidId) << "chain longer than model in row " << r;
  }
}

TEST(RowList, BuildMatchesBruteForceModel) {
  const Design d = make_placed_design("aes_360", 0.03);
  const RowList rows(d);
  expect_matches_model(rows, model_of(d));
  std::string why;
  EXPECT_TRUE(rows.check(d, &why)) << why;
}

TEST(RowList, LinksAbacusRowOrder) {
  // Linking the order Abacus placed cells in must give the list the sorted
  // build gives, on uniform rows and with a class filter.
  for (const bool filtered : {false, true}) {
    Design d = make_placed_design("vga_270", 0.03);
    AbacusOptions opt;
    if (filtered) opt.row_filter = [](InstId cell, int row) { return (row + cell) % 3 == 0; };
    const AbacusResult ar = abacus_legalize(d, opt);
    ASSERT_TRUE(ar.success);
    ASSERT_EQ(static_cast<int>(ar.rows.size()), d.floorplan.num_rows());
    const RowList rows(d, ar.rows);
    expect_matches_model(rows, model_of(d));
    std::string why;
    EXPECT_TRUE(rows.check(d, &why)) << why;
  }
}

TEST(RowList, RejectsMalformedRowOrder) {
  const Design d = make_placed_design("aes_360", 0.03);
  const std::vector<std::vector<InstId>> good = model_of(d);
  std::size_t row = 0;  // a row holding at least two cells
  while (good[row].size() < 2) ++row;
  auto rejects = [&d](const std::vector<std::vector<InstId>>& order) {
    try {
      const RowList rows(d, order);
    } catch (const mth::Error&) {
      return true;
    }
    return false;
  };
  EXPECT_FALSE(rejects(good));
  auto swapped = good;  // out of (x, id) order
  std::swap(swapped[row][0], swapped[row][1]);
  EXPECT_TRUE(rejects(swapped));
  auto missing = good;
  missing[row].pop_back();
  EXPECT_TRUE(rejects(missing));
  auto twice = good;
  twice[row].push_back(good[row][0]);
  EXPECT_TRUE(rejects(twice));
  auto short_of_rows = good;
  short_of_rows.pop_back();
  EXPECT_TRUE(rejects(short_of_rows));
}

TEST(RowList, RandomizedOpsStayConsistentWithModel) {
  Design d = make_placed_design("aes_400", 0.02);
  RowList rows(d);
  std::vector<std::vector<InstId>> model = model_of(d);
  std::mt19937_64 rng(1234);

  // Positions are relabeled from the model after each mutation, so check()'s
  // x-order clause grades the *structure* (order == model order), and the
  // layout stays simple: cell k of a row sits at x = 1000 k.
  auto relabel = [&](std::size_t r) {
    const std::vector<InstId>& row = model[r];
    for (std::size_t k = 0; k < row.size(); ++k) {
      d.netlist.instance(row[k]).pos.x = static_cast<Dbu>(1000 * k);
    }
  };
  for (std::size_t r = 0; r < model.size(); ++r) relabel(r);

  auto nonempty_row = [&]() {
    std::size_t r;
    do {
      r = rng() % model.size();
    } while (model[r].empty());
    return r;
  };

  for (int op = 0; op < 2000; ++op) {
    const std::size_t r = nonempty_row();
    if (model[r].size() < 2) continue;
    const std::size_t k = rng() % (model[r].size() - 1);
    rows.swap_adjacent(model[r][k], model[r][k + 1]);
    std::swap(model[r][k], model[r][k + 1]);
    relabel(r);
    if (op % 64 == 0) {
      std::string why;
      ASSERT_TRUE(rows.check(d, &why)) << "op " << op << ": " << why;
    }
  }
  expect_matches_model(rows, model);
  std::string why;
  EXPECT_TRUE(rows.check(d, &why)) << why;
}

TEST(RowList, CheckRejectsCorruptedStructure) {
  const Design d = make_placed_design("aes_360", 0.02);
  // A swap without the matching position update breaks the x-order clause.
  RowList rows(d);
  for (int r = 0; r < rows.num_rows(); ++r) {
    const InstId a = rows.row_first(r);
    if (a == kInvalidId || rows.next(a) == kInvalidId) continue;
    rows.swap_adjacent(a, rows.next(a));
    std::string why;
    EXPECT_FALSE(rows.check(d, &why));
    EXPECT_NE(why.find("x order"), std::string::npos) << why;
    return;
  }
  FAIL() << "no row with two cells";
}

// ---------------------------------------------------------------------------
// improve_placement: the strict-total-HPWL detailed placer on top of RowList.
// ---------------------------------------------------------------------------

TEST(Improve, NeverIncreasesHpwlAndStaysLegal) {
  Design d = make_placed_design("aes_400", 0.04);
  const Dbu before = total_hpwl(d);
  ImproveOptions opt;
  opt.oracle = [](const Design& g) { return placement_is_legal(g); };
  opt.oracle_every = 1;
  const ImproveStats stats = improve_placement(d, opt);
  EXPECT_EQ(stats.hpwl_before, before);
  EXPECT_LE(stats.hpwl_after, before);
  EXPECT_EQ(stats.hpwl_after, total_hpwl(d));
  EXPECT_GT(stats.accepted_swaps + stats.accepted_shifts, 0);
  std::string why;
  EXPECT_TRUE(placement_is_legal(d, &why)) << why;
}

TEST(Improve, IsDeterministic) {
  Design d1 = make_placed_design("aes_360", 0.03);
  Design d2 = d1;
  const ImproveStats s1 = improve_placement(d1);
  const ImproveStats s2 = improve_placement(d2);
  EXPECT_EQ(s1.accepted_swaps, s2.accepted_swaps);
  EXPECT_EQ(s1.accepted_shifts, s2.accepted_shifts);
  EXPECT_EQ(s1.hpwl_after, s2.hpwl_after);
  for (InstId i = 0; i < d1.netlist.num_instances(); ++i) {
    ASSERT_EQ(d1.netlist.instance(i).pos, d2.netlist.instance(i).pos);
  }
}

TEST(Improve, HpwlIsMonotoneOverPassBudgets) {
  const Design base = make_placed_design("aes_360", 0.03);
  Dbu prev = total_hpwl(base);
  for (int passes = 1; passes <= 4; ++passes) {
    Design d = base;
    ImproveOptions opt;
    opt.max_passes = passes;
    const ImproveStats stats = improve_placement(d, opt);
    EXPECT_LE(stats.hpwl_after, prev) << "more passes made the result worse";
    prev = stats.hpwl_after;
  }
}

// ---------------------------------------------------------------------------
// Placement pin: improve_placement on the captured output of Flow 3 and of
// Flow 5 (mLEF space) for four small Table-II designs. Per run: an FNV-1a
// hash over every instance position, then passes, accepted swaps, accepted
// shifts, HPWL before and after, and the legal/improve_moves counter. The
// values were recorded from the improver when it still ran on its own
// incremental HPWL engine, before it moved onto the swap polish's per-net
// cache and sweep; any change of a final position, an accepted move or a
// reported number shows here.
// ---------------------------------------------------------------------------
using ImprovePin = std::array<std::uint64_t, 7>;

ImprovePin improve_pin(Design d) {
  trace::Collector collector;
  ImproveStats st;
  {
    trace::SinkScope scope(&collector);
    st = improve_placement(d);
  }
  std::uint64_t h = 14695981039346656037ull;
  for (const Instance& inst : d.netlist.instances()) {
    for (const Dbu v : {inst.pos.x, inst.pos.y}) {
      h ^= static_cast<std::uint64_t>(v);
      h *= 1099511628211ull;
    }
  }
  const auto counters = collector.counters();
  const auto it = counters.find("legal/improve_moves");
  return {h,
          static_cast<std::uint64_t>(st.passes),
          static_cast<std::uint64_t>(st.accepted_swaps),
          static_cast<std::uint64_t>(st.accepted_shifts),
          static_cast<std::uint64_t>(st.hpwl_before),
          static_cast<std::uint64_t>(st.hpwl_after),
          it == counters.end() ? 0 : static_cast<std::uint64_t>(it->second)};
}

std::string format_pin(const ImprovePin& pin) {
  std::string out = "{";
  char buf[32];
  for (std::size_t k = 0; k < pin.size(); ++k) {
    std::snprintf(buf, sizeof buf, k == 0 ? "0x%016llxull" : "%llu",
                  static_cast<unsigned long long>(pin[k]));
    out += (k == 0 ? "" : ", ");
    out += buf;
  }
  return out + "}";
}

/// Cells that use one non-clock net through two or more pins: where the
/// improver's once-per-net count and the polish's once-per-use count differ.
int cells_with_a_net_twice(const Design& d) {
  int cells = 0;
  for (const std::vector<InstUse>& uses : d.netlist.inst_uses()) {
    bool twice = false;
    for (std::size_t k = 0; k < uses.size() && !twice; ++k) {
      if (d.netlist.net(uses[k].net).is_clock) continue;
      for (std::size_t j = 0; j < k; ++j) twice = twice || uses[j].net == uses[k].net;
    }
    cells += twice ? 1 : 0;
  }
  return cells;
}

TEST(Improve, MatchesParentPlacements) {
  struct Want {
    const char* name;
    ImprovePin flow3;
    ImprovePin flow5;
  };
  const Want cases[] = {
      {"aes_360",  // 384 cells
       {0xe58e7b958629fee5ull, 8, 161, 18, 1412168, 1376686, 179},
       {0x261f5fb2e487ca23ull, 8, 286, 19, 1469939, 1407002, 305}},
      {"ldpc_350",  // 1278 cells
       {0xcd753155056853d3ull, 8, 879, 140, 8291737, 8054596, 1019},
       {0x818f0cbad2feeda3ull, 8, 884, 98, 8215128, 7985649, 982}},
      {"fpu_4500",  // 1048 cells
       {0x9d6543ad3d5fe739ull, 8, 756, 57, 5712507, 5495661, 813},
       {0xd536fc9969100c21ull, 8, 847, 76, 5657282, 5462388, 923}},
      {"vga_270",  // 2214 cells
       {0xa72ecc29df2d4351ull, 8, 2917, 116, 20560067, 19779298, 3033},
       {0x5631c8885398c0b1ull, 8, 2481, 206, 20185130, 19474977, 2687}},
  };
  int twice = 0;
  for (const Want& w : cases) {
    flows::FlowOptions opt;
    opt.scale = 0.03;
    opt.rap.ilp.time_limit_s = 20;
    const flows::PreparedCase pc = flows::prepare_case(synth::spec_by_name(w.name), opt);
    twice += cells_with_a_net_twice(pc.initial);
    for (const auto& [flow, want] : {std::pair{flows::FlowId::F3, w.flow3},
                                     std::pair{flows::FlowId::F5, w.flow5}}) {
      flows::FlowOutput out = flows::run_flow(pc, flow, opt, false, true);
      ASSERT_TRUE(out.design.has_value());
      const ImprovePin got = improve_pin(std::move(*out.design));
      EXPECT_EQ(got, want) << w.name << " flow " << static_cast<int>(flow)
                           << ": got " << format_pin(got);
    }
  }
  // The pin covers designs on which the two counting rules differ.
  EXPECT_GT(twice, 0);
}

}  // namespace
}  // namespace mth::legal
