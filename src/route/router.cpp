#include "mth/route/router.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "maze.hpp"
#include "mth/db/pintable.hpp"
#include "mth/trace/trace.hpp"
#include "mth/util/error.hpp"
#include "mth/util/log.hpp"

namespace mth::route {
namespace {

using detail::GridPt;
using detail::Seg;

/// Routing grid with per-edge usage/history (PathFinder-style costs).
class Grid {
 public:
  Grid(const Rect& core, Dbu gcell, double cap_per_dir)
      : core_(core),
        gcell_(gcell),
        cap_(cap_per_dir),
        nx_(std::max<int>(2, static_cast<int>((core.width() + gcell - 1) / gcell))),
        ny_(std::max<int>(2, static_cast<int>((core.height() + gcell - 1) / gcell))),
        costs_(nx_, ny_, cost_of(0.0, 0.0)) {
    usage_h_.assign(static_cast<std::size_t>(nx_ - 1) * static_cast<std::size_t>(ny_), 0.0);
    usage_v_.assign(static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_ - 1), 0.0);
    hist_h_.assign(usage_h_.size(), 0.0);
    hist_v_.assign(usage_v_.size(), 0.0);
  }

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  double capacity() const { return cap_; }
  Dbu gcell() const { return gcell_; }

  GridPt locate(const Point& p) const {
    return {std::clamp(static_cast<int>((p.x - core_.lo.x) / gcell_), 0, nx_ - 1),
            std::clamp(static_cast<int>((p.y - core_.lo.y) / gcell_), 0, ny_ - 1)};
  }

  // Edge ids: horizontal edge (x,y)->(x+1,y) and vertical (x,y)->(x,y+1).
  std::size_t h_edge(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_ - 1) +
           static_cast<std::size_t>(x);
  }
  std::size_t v_edge(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(x);
  }

  /// Cost of taking one more track on the edge: kept in step with every
  /// usage and history change.
  double edge_cost(bool horiz, std::size_t id) const { return costs_.cost(horiz, id); }
  const detail::EdgeCosts& costs() const { return costs_; }

  void add_usage(bool horiz, std::size_t id, double delta) {
    double& u = horiz ? usage_h_[id] : usage_v_[id];
    u += delta;
    costs_.set(horiz, id, cost_of(u, (horiz ? hist_h_ : hist_v_)[id]));
  }

  void bump_history(double inc) {
    for (std::size_t i = 0; i < usage_h_.size(); ++i) {
      if (usage_h_[i] > cap_) {
        hist_h_[i] += inc * (usage_h_[i] - cap_) / cap_;
        costs_.set(true, i, cost_of(usage_h_[i], hist_h_[i]));
      }
    }
    for (std::size_t i = 0; i < usage_v_.size(); ++i) {
      if (usage_v_[i] > cap_) {
        hist_v_[i] += inc * (usage_v_[i] - cap_) / cap_;
        costs_.set(false, i, cost_of(usage_v_[i], hist_v_[i]));
      }
    }
  }

  int count_overflow(double* max_util) const {
    int n = 0;
    double mu = 0.0;
    for (double u : usage_h_) {
      if (u > cap_) ++n;
      mu = std::max(mu, u / cap_);
    }
    for (double u : usage_v_) {
      if (u > cap_) ++n;
      mu = std::max(mu, u / cap_);
    }
    if (max_util) *max_util = mu;
    return n;
  }

  bool edge_overflowed(bool horiz, std::size_t id) const {
    return (horiz ? usage_h_[id] : usage_v_[id]) > cap_;
  }

 private:
  /// Present congestion plus history (PathFinder): 1 + 12 * over + history.
  double cost_of(double u, double h) const {
    const double over = std::max(0.0, (u + 1.0 - cap_) / cap_);
    return 1.0 + 12.0 * over + h;
  }

  Rect core_;
  Dbu gcell_;
  double cap_;
  int nx_, ny_;
  std::vector<double> usage_h_, usage_v_, hist_h_, hist_v_;
  detail::EdgeCosts costs_;
};

/// Visits the L-path edges between two grid points in order: horizontal
/// along a's row then vertical along b's column when `horiz_first`, else
/// vertical along a's column then horizontal along b's row.
template <class Visit>
void for_each_l_edge(const Grid& g, GridPt a, GridPt b, bool horiz_first, Visit visit) {
  const int x0 = std::min(a.x, b.x), x1 = std::max(a.x, b.x);
  const int y0 = std::min(a.y, b.y), y1 = std::max(a.y, b.y);
  if (horiz_first) {
    for (int x = x0; x < x1; ++x) visit(true, g.h_edge(x, a.y));
    for (int y = y0; y < y1; ++y) visit(false, g.v_edge(b.x, y));
  } else {
    for (int y = y0; y < y1; ++y) visit(false, g.v_edge(a.x, y));
    for (int x = x0; x < x1; ++x) visit(true, g.h_edge(x, b.y));
  }
}

/// The L path's edges, in a vector sized exactly.
std::vector<Seg> l_path(const Grid& g, GridPt a, GridPt b, bool horiz_first) {
  std::vector<Seg> out;
  out.reserve(static_cast<std::size_t>(std::abs(a.x - b.x) + std::abs(a.y - b.y)));
  for_each_l_edge(g, a, b, horiz_first,
                  [&out](bool horiz, std::size_t id) { out.push_back({horiz, id}); });
  return out;
}

/// path_cost of the L path, summed in place in the path's order (so the same
/// bits) without building it.
double l_path_cost(const Grid& g, GridPt a, GridPt b, bool horiz_first) {
  double c = 0.0;
  for_each_l_edge(g, a, b, horiz_first,
                  [&g, &c](bool horiz, std::size_t id) { c += g.edge_cost(horiz, id); });
  return c;
}

double path_cost(const Grid& g, const std::vector<Seg>& segs) {
  double c = 0.0;
  for (const Seg& s : segs) c += g.edge_cost(s.horiz, s.id);
  return c;
}

struct EdgeRoute {
  int child_pin;       ///< index into Net::pins
  int parent_pin;
  std::vector<Seg> segs;
  Dbu length = 0;
};

}  // namespace

RouteResult route_design(const Design& design, const RouterOptions& opt) {
  MTH_SPAN("route/global");
  // The maze search needs finite, non-negative edge costs.
  MTH_ASSERT(opt.layers_per_dir > 0, "router: layers_per_dir must be positive");
  MTH_ASSERT(opt.wire_pitch > 0.0 && std::isfinite(opt.wire_pitch),
             "router: wire_pitch must be positive and finite");
  MTH_ASSERT(opt.history_increment >= 0.0 && std::isfinite(opt.history_increment),
             "router: history_increment must be non-negative and finite");
  MTH_ASSERT(opt.gcell_size >= 0, "router: gcell_size must be positive, or 0 for auto");
  MTH_ASSERT(opt.ripup_passes >= 0, "router: ripup_passes must be non-negative");
  const Floorplan& fp = design.floorplan;
  const Tech& tech = design.library->tech();
  const Dbu gcell = opt.gcell_size > 0
                        ? opt.gcell_size
                        : std::max<Dbu>(fp.row(0).height * 6, tech.site_width * 24);
  const double cap = opt.layers_per_dir *
                     (static_cast<double>(gcell) / opt.wire_pitch);
  Grid grid(fp.core(), gcell, cap);

  const int num_nets = design.netlist.num_nets();
  RouteResult result;
  result.nets.resize(static_cast<std::size_t>(num_nets));
  result.grid_nx = grid.nx();
  result.grid_ny = grid.ny();

  // Pin geometry per net, plus MST topology (Prim, Manhattan metric).
  std::vector<std::vector<Point>> net_pins(static_cast<std::size_t>(num_nets));
  std::vector<std::vector<EdgeRoute>> net_edges(static_cast<std::size_t>(num_nets));
  {
    const db::PinTable table(design);
    std::vector<bool> in_tree;
    std::vector<Dbu> best;
    std::vector<int> best_parent;
    for (NetId nid = 0; nid < num_nets; ++nid) {
      const auto refs = table.pins(nid);
      NetRoute& nr = result.nets[static_cast<std::size_t>(nid)];
      const int k = static_cast<int>(refs.size());
      nr.parent.assign(static_cast<std::size_t>(k), -1);
      nr.edge_length.assign(static_cast<std::size_t>(k), 0);
      if (table.is_clock(nid) || k < 2) continue;

      std::vector<Point>& pins = net_pins[static_cast<std::size_t>(nid)];
      pins.reserve(static_cast<std::size_t>(k));
      for (const db::PinTable::Pin& pin : refs) pins.push_back(table.position(pin));

      // Prim MST rooted at the driver (pin 0).
      in_tree.assign(static_cast<std::size_t>(k), false);
      best.assign(static_cast<std::size_t>(k), INT64_MAX);
      best_parent.assign(static_cast<std::size_t>(k), 0);
      in_tree[0] = true;
      for (int i = 1; i < k; ++i) {
        best[static_cast<std::size_t>(i)] = manhattan(pins[0], pins[static_cast<std::size_t>(i)]);
      }
      for (int added = 1; added < k; ++added) {
        int pick = -1;
        Dbu pick_d = INT64_MAX;
        for (int i = 1; i < k; ++i) {
          if (!in_tree[static_cast<std::size_t>(i)] &&
              best[static_cast<std::size_t>(i)] < pick_d) {
            pick_d = best[static_cast<std::size_t>(i)];
            pick = i;
          }
        }
        MTH_ASSERT(pick >= 0, "router: MST failure");
        in_tree[static_cast<std::size_t>(pick)] = true;
        nr.parent[static_cast<std::size_t>(pick)] = best_parent[static_cast<std::size_t>(pick)];
        for (int i = 1; i < k; ++i) {
          if (in_tree[static_cast<std::size_t>(i)]) continue;
          const Dbu d = manhattan(pins[static_cast<std::size_t>(pick)],
                                  pins[static_cast<std::size_t>(i)]);
          if (d < best[static_cast<std::size_t>(i)]) {
            best[static_cast<std::size_t>(i)] = d;
            best_parent[static_cast<std::size_t>(i)] = pick;
          }
        }
      }

      // Realize each MST edge as the cheaper of the two L paths.
      auto& edges = net_edges[static_cast<std::size_t>(nid)];
      edges.reserve(static_cast<std::size_t>(k - 1));
      for (int i = 1; i < k; ++i) {
        const int par = nr.parent[static_cast<std::size_t>(i)];
        const GridPt a = grid.locate(pins[static_cast<std::size_t>(par)]);
        const GridPt b = grid.locate(pins[static_cast<std::size_t>(i)]);
        const bool first = l_path_cost(grid, a, b, true) <= l_path_cost(grid, a, b, false);
        EdgeRoute er;
        er.child_pin = i;
        er.parent_pin = par;
        er.segs = l_path(grid, a, b, first);
        er.length = manhattan(pins[static_cast<std::size_t>(par)],
                              pins[static_cast<std::size_t>(i)]);
        for (const Seg& s : er.segs) grid.add_usage(s.horiz, s.id, 1.0);
        edges.push_back(std::move(er));
      }
    }
  }

  // Rip-up & reroute passes over nets touching overflowed edges.
  detail::MazeSearch maze;
  std::int64_t maze_searches = 0, nets_rerouted = 0;
  for (int pass = 0; pass < opt.ripup_passes; ++pass) {
    if (grid.count_overflow(nullptr) == 0) break;
    grid.bump_history(opt.history_increment);
    int rerouted = 0;
    for (NetId nid = 0; nid < num_nets; ++nid) {
      auto& edges = net_edges[static_cast<std::size_t>(nid)];
      if (edges.empty() ||
          static_cast<int>(edges.size()) + 1 > opt.max_reroute_degree) {
        continue;
      }
      bool hot = false;
      for (const EdgeRoute& er : edges) {
        for (const Seg& s : er.segs) {
          if (grid.edge_overflowed(s.horiz, s.id)) {
            hot = true;
            break;
          }
        }
        if (hot) break;
      }
      if (!hot) continue;
      const std::vector<Point>& pins = net_pins[static_cast<std::size_t>(nid)];
      for (EdgeRoute& er : edges) {
        for (const Seg& s : er.segs) grid.add_usage(s.horiz, s.id, -1.0);
        const GridPt a = grid.locate(pins[static_cast<std::size_t>(er.parent_pin)]);
        const GridPt b = grid.locate(pins[static_cast<std::size_t>(er.child_pin)]);
        // Upper bound for the search: the cheapest of the previous route and
        // the two L paths, each costed on the current grid.
        const double ub = std::min({path_cost(grid, er.segs), l_path_cost(grid, a, b, true),
                                    l_path_cost(grid, a, b, false)});
        ++maze_searches;
        // A fresh vector, moved into the edge: reusing one buffer across
        // searches raised peak RSS (EXPERIMENTS.md P7).
        std::vector<Seg> path;
        if (maze.route(grid.costs(), a, b, ub, path)) {
          const Dbu straight = manhattan(pins[static_cast<std::size_t>(er.parent_pin)],
                                         pins[static_cast<std::size_t>(er.child_pin)]);
          const Dbu grid_len = static_cast<Dbu>(path.size()) * gcell;
          er.segs = std::move(path);
          // Detoured length: never shorter than the straight-line route.
          er.length = std::max(straight, grid_len);
        }
        for (const Seg& s : er.segs) grid.add_usage(s.horiz, s.id, 1.0);
      }
      ++rerouted;
    }
    nets_rerouted += rerouted;
    MTH_DEBUG << "route pass " << pass << ": rerouted " << rerouted << " nets, "
              << grid.count_overflow(nullptr) << " edges overflowed";
    if (rerouted == 0) break;
  }
  MTH_COUNT("route/maze_searches", maze_searches);
  MTH_COUNT("route/maze_pops", maze.pops());
  MTH_COUNT("route/nets_rerouted", nets_rerouted);

  // Collect lengths.
  for (NetId nid = 0; nid < num_nets; ++nid) {
    NetRoute& nr = result.nets[static_cast<std::size_t>(nid)];
    for (const EdgeRoute& er : net_edges[static_cast<std::size_t>(nid)]) {
      nr.edge_length[static_cast<std::size_t>(er.child_pin)] = er.length;
      nr.length += er.length;
    }
    result.total_wirelength += nr.length;
  }
  result.overflowed_edges = grid.count_overflow(&result.max_utilization);
  MTH_COUNT("route/overflows", result.overflowed_edges);
  return result;
}

}  // namespace mth::route
