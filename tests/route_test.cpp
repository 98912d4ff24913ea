// Global router tests: tree validity, length lower bounds, congestion
// response, determinism, option checks, a pin of the exact routes and the
// router's work counters, and the bounded maze search against plain
// Dijkstra.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "maze.hpp"
#include "mth/db/metrics.hpp"
#include "mth/flows/flow.hpp"
#include "mth/route/router.hpp"
#include "mth/trace/collector.hpp"
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
// max_utilization and the grid size) under three router settings, plus the
// route/* work counters of each call. The routes were recorded from the
// plain-Dijkstra maze router and the counters from the bounded search that
// replaced it; a search that picks a different path anywhere, or a
// different rip-up decision, shows in the routes, and a search that pops in
// another order or skips counting a search shows in the counters.
// ---------------------------------------------------------------------------
struct RoutePin {
  std::uint64_t hash;
  Dbu total_wirelength;
  int overflowed_edges;
};

/// The route/* counters of one route_design call.
struct RouteWork {
  std::int64_t maze_searches, maze_pops, nets_rerouted, overflows;
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

/// Routes `d` under a collector of its own and checks the result and the
/// call's work counters against the recorded values.
void expect_pin(const Design& d, const RouterOptions& opt, const RoutePin& want,
                const RouteWork& want_work, const char* what) {
  trace::Collector collector;
  RouteResult r;
  {
    trace::SinkScope scope(&collector);
    r = route_design(d, opt);
  }
  const RoutePin got = pin_of(r);
  EXPECT_EQ(got.total_wirelength, want.total_wirelength) << what;
  EXPECT_EQ(got.overflowed_edges, want.overflowed_edges) << what;
  EXPECT_EQ(got.hash, want.hash) << what << std::hex << ": hash 0x" << got.hash;

  const auto counters = collector.counters();
  auto counter = [&counters](const char* name) -> std::int64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? -1 : it->second;
  };
  EXPECT_EQ(counter("route/maze_searches"), want_work.maze_searches) << what;
  EXPECT_EQ(counter("route/maze_pops"), want_work.maze_pops) << what;
  EXPECT_EQ(counter("route/nets_rerouted"), want_work.nets_rerouted) << what;
  EXPECT_EQ(counter("route/overflows"), want_work.overflows) << what;
}

TEST(Router, MatchesParentRoutes) {
  const Design& d = small_case().initial;
  expect_pin(d, {}, {0xc7850be60d642790ull, 3651556, 7}, {2510, 7562, 701, 7},
             "default options");

  RouterOptions starved;
  starved.layers_per_dir = 1;
  starved.wire_pitch = 640.0;
  starved.ripup_passes = 4;
  expect_pin(d, starved, {0x2a32332013b8eee9ull, 3794072, 84}, {5924, 22579, 2400, 84},
             "starved, 4 passes");

  RouterOptions fine;
  fine.gcell_size = d.floorplan.row(0).height * 3;
  expect_pin(d, fine, {0x605d7190027386efull, 3538427, 24}, {2929, 18620, 843, 24},
             "3-row gcells");
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
  // 0 means auto; a negative gcell size is no size at all.
  RouterOptions negative_gcell;
  negative_gcell.gcell_size = -1;
  EXPECT_THROW(route_design(d, negative_gcell), Error);
  RouterOptions negative_passes;
  negative_passes.ripup_passes = -1;
  EXPECT_THROW(route_design(d, negative_passes), Error);
  // The limits themselves still route.
  RouterOptions no_passes;
  no_passes.ripup_passes = 0;
  EXPECT_NO_THROW(route_design(d, no_passes));
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

// ---------------------------------------------------------------------------
// The bounded search as it was with a heap of (dist, node id) pairs. The
// body of ParentMazeSearch::route and sum_outward are verbatim copies of
// that search; the class holds the same scratch. Every search below runs on
// both and must return the same path with the same number of pops.
// ---------------------------------------------------------------------------
class ParentMazeSearch {
 public:
  bool route(const EdgeCosts& costs, GridPt a, GridPt b, double ub,
             std::vector<Seg>& out);
  std::int64_t pops() const { return pops_; }
  /// At least the largest heap any search has held.
  std::size_t heap_capacity() const { return heap_.capacity(); }

 private:
  struct Node {
    double dist;
    std::int32_t prev;
    std::uint32_t stamp;
  };

  std::uint32_t gen_ = 0;
  std::int64_t pops_ = 0;
  std::vector<Node> node_;
  std::vector<std::pair<double, std::uint32_t>> heap_;
  std::vector<double> lb_x_, lb_y_;  ///< LB to b per column / row
};

/// lb[i] = sum of gap_min(j) over the gaps j between i and `to`.
template <class GapMin>
void sum_outward(std::vector<double>& lb, int to, GapMin gap_min) {
  const int n = static_cast<int>(lb.size());
  lb[static_cast<std::size_t>(to)] = 0.0;
  for (int i = to - 1; i >= 0; --i) {
    lb[static_cast<std::size_t>(i)] = lb[static_cast<std::size_t>(i + 1)] + gap_min(i);
  }
  for (int i = to + 1; i < n; ++i) {
    lb[static_cast<std::size_t>(i)] = lb[static_cast<std::size_t>(i - 1)] + gap_min(i - 1);
  }
}

bool ParentMazeSearch::route(const EdgeCosts& g, GridPt a, GridPt b, double ub,
                             std::vector<Seg>& out) {
  const int nx = g.nx(), ny = g.ny();
  const std::size_t w = static_cast<std::size_t>(nx - 1);
  const std::size_t nn = static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  if (node_.size() != nn || lb_x_.size() != static_cast<std::size_t>(nx)) {
    node_.assign(nn, Node{0.0, -1, 0});
    lb_x_.resize(static_cast<std::size_t>(nx));
    lb_y_.resize(static_cast<std::size_t>(ny));
    gen_ = 0;
  }

  // LB to b: the per-gap minima summed outward from b.
  sum_outward(lb_x_, b.x, [&g](int x) { return g.col_min(x); });
  sum_outward(lb_y_, b.y, [&g](int y) { return g.row_min(y); });
  const double bound = ub * (1.0 + 1e-9) + 1e-9;

  if (++gen_ == 0) {  // generation wrapped: forget every stamp
    for (Node& n : node_) n.stamp = 0;
    gen_ = 1;
  }
  const std::uint32_t gen = gen_;
  auto id_of = [nx](int x, int y) {
    return static_cast<std::uint32_t>(y) * static_cast<std::uint32_t>(nx) +
           static_cast<std::uint32_t>(x);
  };
  using QE = std::pair<double, std::uint32_t>;
  const std::greater<QE> later;
  heap_.clear();
  const std::uint32_t source = id_of(a.x, a.y);
  const std::uint32_t target = id_of(b.x, b.y);
  node_[source] = {0.0, -1, gen};
  heap_.push_back({0.0, source});
  std::int64_t pops = 0;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > node_[u].dist) continue;
    ++pops;
    if (u == target) break;
    const int ux = static_cast<int>(u % static_cast<std::uint32_t>(nx));
    const int uy = static_cast<int>(u / static_cast<std::uint32_t>(nx));
    auto relax = [&](int vx, int vy, double cost) {
      const double nd = d + cost;
      const std::uint32_t id = id_of(vx, vy);
      Node& n = node_[id];
      const double cur = n.stamp == gen ? n.dist : std::numeric_limits<double>::max();
      if (nd < cur && !(nd + (lb_x_[static_cast<std::size_t>(vx)] +
                              lb_y_[static_cast<std::size_t>(vy)]) > bound)) {
        n = {nd, static_cast<std::int32_t>(u), gen};
        heap_.push_back({nd, id});
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    };
    const std::size_t hrow = static_cast<std::size_t>(uy) * w;
    const std::size_t vrow = static_cast<std::size_t>(uy) * static_cast<std::size_t>(nx);
    const std::size_t uxs = static_cast<std::size_t>(ux);
    if (ux > 0) relax(ux - 1, uy, g.h(hrow + uxs - 1));
    if (ux + 1 < nx) relax(ux + 1, uy, g.h(hrow + uxs));
    if (uy > 0) relax(ux, uy - 1, g.v(vrow - static_cast<std::size_t>(nx) + uxs));
    if (uy + 1 < ny) relax(ux, uy + 1, g.v(vrow + uxs));
  }
  pops_ += pops;
  if (node_[target].stamp != gen) return false;
  out.clear();
  std::uint32_t cur = target;
  while (node_[cur].prev >= 0) {
    const std::uint32_t p = static_cast<std::uint32_t>(node_[cur].prev);
    const int cx = static_cast<int>(cur % static_cast<std::uint32_t>(nx));
    const int cy = static_cast<int>(cur / static_cast<std::uint32_t>(nx));
    const int px = static_cast<int>(p % static_cast<std::uint32_t>(nx));
    const int py = static_cast<int>(p / static_cast<std::uint32_t>(nx));
    if (cy == py) {
      out.push_back({true, static_cast<std::size_t>(cy) * w +
                               static_cast<std::size_t>(std::min(cx, px))});
    } else {
      out.push_back({false, static_cast<std::size_t>(std::min(cy, py)) *
                                    static_cast<std::size_t>(nx) +
                                static_cast<std::size_t>(cx)});
    }
    cur = p;
  }
  return true;
}

/// One search by `maze` and by the parent's search on the same costs. Both
/// must return plain Dijkstra's path `want`, segment by segment, and must
/// pop the same number of times.
void expect_same_search(MazeSearch& maze, ParentMazeSearch& parent,
                        const EdgeCosts& costs, GridPt a, GridPt b, double ub,
                        const std::vector<Seg>& want) {
  std::vector<Seg> got = {{true, 12345}};  // must be overwritten
  std::vector<Seg> ref = {{true, 12345}};
  const std::int64_t pops = maze.pops(), ref_pops = parent.pops();
  ASSERT_TRUE(maze.route(costs, a, b, ub, got));
  ASSERT_TRUE(parent.route(costs, a, b, ub, ref));
  EXPECT_EQ(maze.pops() - pops, parent.pops() - ref_pops);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(ref.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].horiz, want[i].horiz) << "segment " << i;
    ASSERT_EQ(got[i].id, want[i].id) << "segment " << i;
    ASSERT_EQ(ref[i].horiz, want[i].horiz) << "segment " << i;
    ASSERT_EQ(ref[i].id, want[i].id) << "segment " << i;
  }
}

/// Exact distance of `path` (segments from b back to a), accumulated from a
/// as Dijkstra does.
double path_distance(const Grid& g, const std::vector<Seg>& path) {
  double dist = 0.0;
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    dist += g.edge_cost(it->horiz, it->id);
  }
  return dist;
}

/// The five upper bounds every search is run with: one ulp below the exact
/// distance, the distance, +0.5, x1.25 + 1 and infinity.
std::vector<double> upper_bounds(double dist) {
  return {std::nextafter(dist, 0.0), dist, dist + 0.5, dist * 1.25 + 1.0,
          std::numeric_limits<double>::infinity()};
}

TEST(MazeSearch, MatchesDijkstraBitForBit) {
  Rng rng(13);
  // One search object (and one parent search) throughout: their scratch is
  // reused across grid sizes, cost changes and endpoints.
  MazeSearch maze;
  ParentMazeSearch parent;
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
        if (static_cast<int>(want.size()) >
            std::abs(a.x - b.x) + std::abs(a.y - b.y)) {
          ++detours;
        }
        for (double ub : upper_bounds(path_distance(g, want))) {
          ASSERT_NO_FATAL_FAILURE(expect_same_search(maze, parent, costs, a, b, ub, want))
              << g.nx_ << "x" << g.ny_ << " ub " << ub;
          ++searches;
        }
      }
    }
  }
  EXPECT_EQ(searches, 240 * 3 * 8 * 5);
  EXPECT_GT(detours, 100) << "costs must make some shortest paths detour";
}

TEST(MazeSearch, MatchesParentSearchOnCongestedLargeGrids) {
  // Grids of 100x100 and up (nova_300 @ 1.0 routes on 120x117) with
  // congested patches, so long searches keep hundreds of entries in the
  // heap. Costs are the router's 1 + 12 * over + history in three forms:
  // integers (equal distances tie across node ids), reals, and integers
  // with zero-cost edges.
  Rng rng(29);
  MazeSearch maze;
  ParentMazeSearch parent;
  int searches = 0, detours = 0;
  for (int trial = 0; trial < 9; ++trial) {
    Grid g;
    g.nx_ = static_cast<int>(rng.uniform_int(100, 130));
    g.ny_ = static_cast<int>(rng.uniform_int(100, 130));
    g.h.assign(static_cast<std::size_t>(g.nx_ - 1) * static_cast<std::size_t>(g.ny_), 1.0);
    g.v.assign(static_cast<std::size_t>(g.nx_) * static_cast<std::size_t>(g.ny_ - 1), 1.0);
    EdgeCosts costs(g.nx_, g.ny_, 1.0);
    for (int round = 0; round < 2; ++round) {
      auto congested = [&]() {
        switch (trial % 3) {
          case 0: return static_cast<double>(rng.uniform_int(2, 13));
          case 1: return 1.0 + 12.0 * rng.uniform_real(0.0, 1.5) +
                         0.6 * rng.uniform_int(0, 3) * rng.uniform_real(0.0, 1.0);
          default: return static_cast<double>(rng.uniform_int(0, 3));
        }
      };
      // Each round congests a few rectangular patches further.
      for (int patch = 0; patch < 12; ++patch) {
        const int x0 = static_cast<int>(rng.uniform_int(0, g.nx_ - 2));
        const int y0 = static_cast<int>(rng.uniform_int(0, g.ny_ - 2));
        const int x1 = std::min(g.nx_ - 1, x0 + static_cast<int>(rng.uniform_int(4, 30)));
        const int y1 = std::min(g.ny_ - 1, y0 + static_cast<int>(rng.uniform_int(4, 30)));
        for (int y = y0; y <= y1; ++y) {
          for (int x = x0; x <= x1; ++x) {
            if (x < x1) {
              const std::size_t id = g.h_edge(x, y);
              g.h[id] = congested();
              costs.set(true, id, g.h[id]);
            }
            if (y < y1) {
              const std::size_t id = g.v_edge(x, y);
              g.v[id] = congested();
              costs.set(false, id, g.v[id]);
            }
          }
        }
      }
      const int mx = g.nx_ - 1, my = g.ny_ - 1;
      auto random_pt = [&]() {
        return GridPt{static_cast<int>(rng.uniform_int(0, mx)),
                      static_cast<int>(rng.uniform_int(0, my))};
      };
      std::vector<std::pair<GridPt, GridPt>> ends = {{{0, 0}, {mx, my}},
                                                     {{mx, 0}, {0, my}}};
      const GridPt same = random_pt();
      ends.push_back({same, same});
      for (int i = 0; i < 3; ++i) ends.push_back({random_pt(), random_pt()});

      for (const auto& [a, b] : ends) {
        std::vector<Seg> want;
        ASSERT_TRUE(maze_route(g, a, b, want));
        if (static_cast<int>(want.size()) >
            std::abs(a.x - b.x) + std::abs(a.y - b.y)) {
          ++detours;
        }
        for (double ub : upper_bounds(path_distance(g, want))) {
          ASSERT_NO_FATAL_FAILURE(expect_same_search(maze, parent, costs, a, b, ub, want))
              << g.nx_ << "x" << g.ny_ << " trial " << trial << " ub " << ub;
          ++searches;
        }
      }
    }
  }
  EXPECT_EQ(searches, 9 * 2 * 6 * 5);
  EXPECT_GT(detours, 10) << "congestion must make some shortest paths detour";
  EXPECT_GE(parent.heap_capacity(), 512u) << "some search must hold hundreds of heap entries";
}

}  // namespace
}  // namespace mth::route
