// Global router tests: tree validity, length lower bounds, congestion
// response, determinism, option checks, a pin of the exact routes, and the
// bounded maze search against plain Dijkstra.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "maze.hpp"
#include "mth/db/metrics.hpp"
#include "mth/flows/flow.hpp"
#include "mth/route/router.hpp"
#include "mth/util/error.hpp"
#include "mth/util/rng.hpp"

namespace mth::route {
namespace {

const flows::PreparedCase& small_case() {
  static const flows::PreparedCase pc = [] {
    flows::FlowOptions opt;
    opt.scale = 0.05;
    return flows::prepare_case(synth::spec_by_name("aes_360"), opt);
  }();
  return pc;
}

TEST(Router, EveryNonClockNetRouted) {
  const Design& d = small_case().initial;
  const RouteResult r = route_design(d);
  ASSERT_EQ(r.nets.size(), static_cast<std::size_t>(d.netlist.num_nets()));
  for (NetId n = 0; n < d.netlist.num_nets(); ++n) {
    const Net& net = d.netlist.net(n);
    const NetRoute& nr = r.nets[static_cast<std::size_t>(n)];
    if (net.is_clock || net.degree() < 2) {
      EXPECT_EQ(nr.length, 0);
      continue;
    }
    EXPECT_EQ(nr.parent.size(), static_cast<std::size_t>(net.degree()));
    EXPECT_EQ(nr.parent[0], -1);  // driver is the root
  }
  EXPECT_GT(r.total_wirelength, 0);
}

TEST(Router, TreeIsConnectedAndAcyclic) {
  const Design& d = small_case().initial;
  const RouteResult r = route_design(d);
  for (NetId n = 0; n < d.netlist.num_nets(); ++n) {
    const Net& net = d.netlist.net(n);
    if (net.is_clock || net.degree() < 2) continue;
    const NetRoute& nr = r.nets[static_cast<std::size_t>(n)];
    // Every non-root reaches the root without cycles.
    for (int i = 1; i < net.degree(); ++i) {
      int steps = 0;
      int cur = i;
      while (cur != 0 && steps <= net.degree()) {
        cur = nr.parent[static_cast<std::size_t>(cur)];
        ASSERT_GE(cur, 0) << "disconnected pin on net " << net.name;
        ++steps;
      }
      ASSERT_LE(steps, net.degree()) << "cycle on net " << net.name;
    }
  }
}

TEST(Router, LengthAtLeastHpwlPerNet) {
  // A Steiner tree can never be shorter than the net HPWL.
  const Design& d = small_case().initial;
  const RouteResult r = route_design(d);
  for (NetId n = 0; n < d.netlist.num_nets(); ++n) {
    const Net& net = d.netlist.net(n);
    if (net.is_clock || net.degree() < 2) continue;
    EXPECT_GE(r.nets[static_cast<std::size_t>(n)].length, net_hpwl(d, n))
        << net.name;
  }
}

TEST(Router, TwoPinNetLengthIsManhattan) {
  const Design& d = small_case().initial;
  const RouteResult r = route_design(d);
  int checked = 0;
  for (NetId n = 0; n < d.netlist.num_nets(); ++n) {
    const Net& net = d.netlist.net(n);
    if (net.is_clock || net.degree() != 2) continue;
    const Point a = d.netlist.pin_position(net.pins[0], *d.library);
    const Point b = d.netlist.pin_position(net.pins[1], *d.library);
    // Two-pin nets route as an L (possibly detoured when congested); length
    // must equal Manhattan unless rip-up added detour.
    EXPECT_GE(r.nets[static_cast<std::size_t>(n)].length, manhattan(a, b));
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

TEST(Router, TotalEqualsSumOfNets) {
  const Design& d = small_case().initial;
  const RouteResult r = route_design(d);
  Dbu sum = 0;
  for (const NetRoute& nr : r.nets) sum += nr.length;
  EXPECT_EQ(sum, r.total_wirelength);
}

TEST(Router, Deterministic) {
  const Design& d = small_case().initial;
  const RouteResult a = route_design(d);
  const RouteResult b = route_design(d);
  EXPECT_EQ(a.total_wirelength, b.total_wirelength);
  EXPECT_EQ(a.overflowed_edges, b.overflowed_edges);
}

TEST(Router, GridSizeOption) {
  const Design& d = small_case().initial;
  RouterOptions opt;
  opt.gcell_size = d.floorplan.row(0).height * 3;
  const RouteResult r = route_design(d, opt);
  EXPECT_GT(r.grid_nx, 0);
  EXPECT_GT(r.grid_ny, 0);
  EXPECT_GT(r.total_wirelength, 0);
}

TEST(Router, CongestionReliefReducesOverflow) {
  // Starve capacity, then check that rip-up passes do not increase overflow
  // versus no passes at all.
  const Design& d = small_case().initial;
  RouterOptions starved;
  starved.layers_per_dir = 1;
  starved.wire_pitch = 640.0;  // very few tracks
  starved.ripup_passes = 0;
  const RouteResult before = route_design(d, starved);
  starved.ripup_passes = 4;
  const RouteResult after = route_design(d, starved);
  EXPECT_LE(after.overflowed_edges, before.overflowed_edges);
  EXPECT_GT(before.overflowed_edges, 0) << "test needs congestion to bite";
}

TEST(Router, WirelengthTracksPlacementQuality) {
  // Scrambling the placement must increase routed wirelength.
  Design d = small_case().initial;
  const Dbu good = route_design(d).total_wirelength;
  Rng rng(3);
  const Rect core = d.floorplan.core();
  for (InstId i = 0; i < d.netlist.num_instances(); ++i) {
    Instance& inst = d.netlist.instance(i);
    const CellMaster& m = d.master_of(i);
    inst.pos = {rng.uniform_int(core.lo.x, core.hi.x - m.width),
                rng.uniform_int(core.lo.y, core.hi.y - m.height)};
  }
  const Dbu bad = route_design(d).total_wirelength;
  EXPECT_GT(bad, good * 3 / 2);
}

// ---------------------------------------------------------------------------
// Route pin: an FNV-1a hash over every RouteResult field (per-net parent,
// edge_length and length; total wirelength, overflowed edges, the bits of
// max_utilization and the grid size) under three router settings. The
// values were recorded from the plain-Dijkstra maze router; a search that
// picks a different path anywhere, or a different rip-up decision, shows
// here.
// ---------------------------------------------------------------------------
struct RoutePin {
  std::uint64_t hash;
  Dbu total_wirelength;
  int overflowed_edges;
};

RoutePin pin_of(const RouteResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  auto feed = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const NetRoute& nr : r.nets) {
    feed(nr.parent.size());
    for (int p : nr.parent) feed(static_cast<std::uint64_t>(p));
    for (Dbu l : nr.edge_length) feed(static_cast<std::uint64_t>(l));
    feed(static_cast<std::uint64_t>(nr.length));
  }
  feed(static_cast<std::uint64_t>(r.total_wirelength));
  feed(static_cast<std::uint64_t>(r.overflowed_edges));
  feed(std::bit_cast<std::uint64_t>(r.max_utilization));
  feed(static_cast<std::uint64_t>(r.grid_nx));
  feed(static_cast<std::uint64_t>(r.grid_ny));
  return {h, r.total_wirelength, r.overflowed_edges};
}

void expect_pin(const RouteResult& r, const RoutePin& want, const char* what) {
  const RoutePin got = pin_of(r);
  EXPECT_EQ(got.total_wirelength, want.total_wirelength) << what;
  EXPECT_EQ(got.overflowed_edges, want.overflowed_edges) << what;
  EXPECT_EQ(got.hash, want.hash) << what << std::hex << ": hash 0x" << got.hash;
}

TEST(Router, MatchesParentRoutes) {
  const Design& d = small_case().initial;
  expect_pin(route_design(d), {0xc7850be60d642790ull, 3651556, 7}, "default options");

  RouterOptions starved;
  starved.layers_per_dir = 1;
  starved.wire_pitch = 640.0;
  starved.ripup_passes = 4;
  expect_pin(route_design(d, starved), {0x2a32332013b8eee9ull, 3794072, 84}, "starved, 4 passes");

  RouterOptions fine;
  fine.gcell_size = d.floorplan.row(0).height * 3;
  expect_pin(route_design(d, fine), {0x605d7190027386efull, 3538427, 24}, "3-row gcells");
}

TEST(Router, RejectsUnusableOptions) {
  const Design& d = small_case().initial;
  RouterOptions no_layers;
  no_layers.layers_per_dir = 0;
  EXPECT_THROW(route_design(d, no_layers), Error);
  RouterOptions zero_pitch;
  zero_pitch.wire_pitch = 0.0;
  EXPECT_THROW(route_design(d, zero_pitch), Error);
  RouterOptions inf_pitch;
  inf_pitch.wire_pitch = std::numeric_limits<double>::infinity();
  EXPECT_THROW(route_design(d, inf_pitch), Error);
  RouterOptions negative_history;
  negative_history.history_increment = -0.1;
  EXPECT_THROW(route_design(d, negative_history), Error);
  RouterOptions nan_history;
  nan_history.history_increment = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(route_design(d, nan_history), Error);
}

// ---------------------------------------------------------------------------
// Bounded maze search vs plain Dijkstra. The body of maze_route below is a
// verbatim copy of the router's maze search before the bound was added; its
// Grid here holds arbitrary edge costs.
// ---------------------------------------------------------------------------
using detail::EdgeCosts;
using detail::GridPt;
using detail::MazeSearch;
using detail::Seg;

struct Grid {
  int nx_ = 0, ny_ = 0;
  std::vector<double> h, v;
  int nx() const { return nx_; }
  int ny() const { return ny_; }
  std::size_t h_edge(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_ - 1) +
           static_cast<std::size_t>(x);
  }
  std::size_t v_edge(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(x);
  }
  double edge_cost(bool horiz, std::size_t id) const { return horiz ? h[id] : v[id]; }
};

/// Dijkstra maze route between grid points; segments run from b back to a.
bool maze_route(const Grid& g, GridPt a, GridPt b, std::vector<Seg>& out) {
  const int nx = g.nx(), ny = g.ny();
  const std::size_t nn = static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  std::vector<double> dist(nn, std::numeric_limits<double>::max());
  std::vector<int> prev(nn, -1);
  auto id_of = [&](int x, int y) {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(nx) +
           static_cast<std::size_t>(x);
  };
  using QE = std::pair<double, std::size_t>;
  std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
  dist[id_of(a.x, a.y)] = 0.0;
  pq.push({0.0, id_of(a.x, a.y)});
  const std::size_t target = id_of(b.x, b.y);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    if (u == target) break;
    const int ux = static_cast<int>(u % static_cast<std::size_t>(nx));
    const int uy = static_cast<int>(u / static_cast<std::size_t>(nx));
    auto relax = [&](int vx, int vy, bool horiz, std::size_t eid) {
      const double nd = d + g.edge_cost(horiz, eid);
      const std::size_t v = id_of(vx, vy);
      if (nd < dist[v]) {
        dist[v] = nd;
        prev[v] = static_cast<int>(u);
        pq.push({nd, v});
      }
    };
    if (ux > 0) relax(ux - 1, uy, true, g.h_edge(ux - 1, uy));
    if (ux + 1 < nx) relax(ux + 1, uy, true, g.h_edge(ux, uy));
    if (uy > 0) relax(ux, uy - 1, false, g.v_edge(ux, uy - 1));
    if (uy + 1 < ny) relax(ux, uy + 1, false, g.v_edge(ux, uy));
  }
  if (dist[target] == std::numeric_limits<double>::max()) return false;
  out.clear();
  std::size_t cur = target;
  while (prev[cur] >= 0) {
    const std::size_t p = static_cast<std::size_t>(prev[cur]);
    const int cx = static_cast<int>(cur % static_cast<std::size_t>(nx));
    const int cy = static_cast<int>(cur / static_cast<std::size_t>(nx));
    const int px = static_cast<int>(p % static_cast<std::size_t>(nx));
    const int py = static_cast<int>(p / static_cast<std::size_t>(nx));
    if (cy == py) {
      out.push_back({true, g.h_edge(std::min(cx, px), cy)});
    } else {
      out.push_back({false, g.v_edge(cx, std::min(cy, py))});
    }
    cur = p;
  }
  return true;
}

TEST(MazeSearch, MatchesDijkstraBitForBit) {
  Rng rng(13);
  // One search object throughout: its scratch is reused across grid sizes,
  // cost changes and endpoints.
  MazeSearch maze;
  int searches = 0, detours = 0;
  for (int trial = 0; trial < 240; ++trial) {
    Grid g;
    g.nx_ = static_cast<int>(rng.uniform_int(2, 40));
    g.ny_ = static_cast<int>(rng.uniform_int(2, 40));
    EdgeCosts costs(g.nx_, g.ny_, 1.0);
    for (int round = 0; round < 3; ++round) {
      // Costs 1..3 (many equal-cost paths, so tie order shows), random reals
      // spanning the router's cost range, or 0/1 (zero-cost edges).
      auto draw = [&]() {
        switch (trial % 3) {
          case 0: return static_cast<double>(rng.uniform_int(1, 3));
          case 1: return rng.uniform_real(1.0, 14.0);
          default: return static_cast<double>(rng.uniform_int(0, 1));
        }
      };
      g.h.resize(static_cast<std::size_t>(g.nx_ - 1) * static_cast<std::size_t>(g.ny_));
      g.v.resize(static_cast<std::size_t>(g.nx_) * static_cast<std::size_t>(g.ny_ - 1));
      for (double& c : g.h) c = draw();
      for (double& c : g.v) c = draw();
      // Costs change one edge at a time, as in the router, in random order.
      std::vector<std::size_t> order(g.h.size() + g.v.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      rng.shuffle(order);
      for (std::size_t i : order) {
        const bool horiz = i < g.h.size();
        const std::size_t id = horiz ? i : i - g.h.size();
        costs.set(horiz, id, g.edge_cost(horiz, id));
      }
      // The incrementally kept per-gap minima are the exact minima.
      for (int x = 0; x + 1 < g.nx_; ++x) {
        double m = g.h[static_cast<std::size_t>(x)];
        for (int y = 1; y < g.ny_; ++y) m = std::min(m, g.h[g.h_edge(x, y)]);
        ASSERT_EQ(costs.col_min(x), m) << "column gap " << x;
      }
      for (int y = 0; y + 1 < g.ny_; ++y) {
        double m = g.v[g.v_edge(0, y)];
        for (int x = 1; x < g.nx_; ++x) m = std::min(m, g.v[g.v_edge(x, y)]);
        ASSERT_EQ(costs.row_min(y), m) << "row gap " << y;
      }

      const int mx = g.nx_ - 1, my = g.ny_ - 1;
      auto random_pt = [&]() {
        return GridPt{static_cast<int>(rng.uniform_int(0, mx)),
                      static_cast<int>(rng.uniform_int(0, my))};
      };
      std::vector<std::pair<GridPt, GridPt>> ends = {
          {{0, 0}, {mx, my}}, {{mx, 0}, {0, my}}, {{0, my}, {0, 0}}};
      const GridPt same = random_pt();
      ends.push_back({same, same});
      for (int i = 0; i < 4; ++i) ends.push_back({random_pt(), random_pt()});

      for (const auto& [a, b] : ends) {
        std::vector<Seg> want;
        ASSERT_TRUE(maze_route(g, a, b, want));
        // Exact distance, accumulated from a as Dijkstra does.
        double dist = 0.0;
        for (auto it = want.rbegin(); it != want.rend(); ++it) {
          dist += g.edge_cost(it->horiz, it->id);
        }
        if (static_cast<int>(want.size()) >
            std::abs(a.x - b.x) + std::abs(a.y - b.y)) {
          ++detours;
        }
        const double ubs[] = {std::nextafter(dist, 0.0), dist, dist + 0.5,
                              dist * 1.25 + 1.0,
                              std::numeric_limits<double>::infinity()};
        for (double ub : ubs) {
          std::vector<Seg> got = {{true, 12345}};  // must be overwritten
          ASSERT_TRUE(maze.route(costs, a, b, ub, got))
              << g.nx_ << "x" << g.ny_ << " ub " << ub;
          ASSERT_EQ(got.size(), want.size()) << g.nx_ << "x" << g.ny_ << " ub " << ub;
          for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i].horiz, want[i].horiz) << "segment " << i;
            ASSERT_EQ(got[i].id, want[i].id) << "segment " << i;
          }
          ++searches;
        }
      }
    }
  }
  EXPECT_EQ(searches, 240 * 3 * 8 * 5);
  EXPECT_GT(detours, 100) << "costs must make some shortest paths detour";
}

}  // namespace
}  // namespace mth::route
