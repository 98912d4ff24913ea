#pragma once
// Bounded maze search over the global-routing grid, private to mth::route.
//
// MazeSearch::route is Dijkstra from a to b over an nx x ny gcell grid with
// the classic tie rules: the heap pops the smallest (dist, node id) pair, the
// lower id first; a node's dist/prev change only on a strict improvement;
// neighbours are relaxed left, right, down, up; the search stops when b
// pops. A search with a == b pops a and returns the empty path without
// touching the scratch. On top of that, a relaxation u -> v with tentative
// distance nd is dropped (neither recorded nor pushed) when
// nd + LB(v) > UB, where
//
//   * LB(v) is a lower bound on the cost of any v -> b path. Such a path
//     crosses every column gap between v.x and b.x on some horizontal edge
//     and every row gap between v.y and b.y on some vertical edge, so the
//     sum over those gaps of each gap's cheapest current edge is a bound.
//     EdgeCosts keeps the per-gap minima in step with every cost change, so
//     a search sums them in O(nx + ny).
//   * UB is the caller's upper bound: the cost of some a -> b path on the
//     current costs (the router passes the cheapest of the edge's previous
//     route and its two L paths). The prune compares against
//     UB * (1 + 1e-9) + 1e-9, so that summing the same path in another order
//     (or the LB's rounding) cannot move a node across it.
//
// Why the returned path is plain Dijkstra's, bit for bit. Let D be the
// distance of b and v_0 = a, ..., v_k = b the path plain Dijkstra returns.
// Every v_i has dist(v_i) + LB(v_i) <= D <= UB, so no relaxation that sets
// a v_i to its final distance is dropped. Every label the bounded search
// assigns is the cost of a real path, so it is never below plain Dijkstra's
// final distance of that node. With positive costs each push is strictly
// larger than the pop that made it, so valid pops come in increasing
// (dist, id) order in both searches. By induction along the path: v_{i-1}
// pops with its plain distance and relaxes v_i to dist(v_i). No node w that
// popped earlier can already hold that value, since w would then precede
// v_{i-1} in plain Dijkstra's pop order as well (its plain distance is no
// larger than its bounded label) and would have claimed prev(v_i) there. So
// prev(v_i) = v_{i-1} in both searches and the backtrack reads the same
// path.
//
// Edge costs must be finite and non-negative. The argument above uses
// positive costs, as the router's are (>= 1). A zero-cost edge breaks the
// monotone pop order, but its two ends have the same LB, so a group of
// nodes joined by zero-cost edges is kept or dropped as a whole; the test
// checks that case against plain Dijkstra as well.
//
// The heap. Each entry is one packed key: the distance's IEEE-754 bits
// above the 32-bit node id. Distances are sums of non-negative costs from
// +0.0, so they are never negative and never -0.0, and the unsigned order of
// their bits is their numeric order; one 128-bit compare (no branch on the
// pair) then orders entries as (dist, id). A node's pushed distances
// strictly fall, so no key repeats, and any min-heap pops the keys, stale
// ones included, in the order a heap of (dist, id) pairs pops them;
// route_test checks that, path and pop count, against such a search.
//
// Scratch: dist/prev/stamp per node, the heap storage and the bound arrays
// are allocated once per MazeSearch (again only when the grid size changes)
// and reused; a node's dist/prev are valid only when its stamp equals the
// current search's generation, so a search touches only the nodes it
// reaches. A found path is sized exactly (hops counted first) before the
// backtrack fills it.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mth::route::detail {

struct GridPt {
  int x = 0, y = 0;
  friend bool operator==(const GridPt&, const GridPt&) = default;
};

/// One grid edge of a path: horizontal edge (x,y)-(x+1,y) has id
/// y*(nx-1)+x, vertical edge (x,y)-(x,y+1) has id y*nx+x.
struct Seg {
  bool horiz;
  std::size_t id;
};

/// Edge costs of an nx x ny gcell grid (nx, ny >= 2), plus the cheapest
/// edge of every column gap (horizontal edges x -> x+1) and row gap
/// (vertical edges y -> y+1), kept in step by set(). Costs must be finite
/// and non-negative.
class EdgeCosts {
 public:
  EdgeCosts(int nx, int ny, double initial);

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  double cost(bool horiz, std::size_t id) const { return horiz ? h_[id] : v_[id]; }
  double h(std::size_t id) const { return h_[id]; }
  double v(std::size_t id) const { return v_[id]; }
  double col_min(int x) const { return col_min_[static_cast<std::size_t>(x)]; }
  double row_min(int y) const { return row_min_[static_cast<std::size_t>(y)]; }

  void set(bool horiz, std::size_t id, double cost);

 private:
  int nx_, ny_;
  std::vector<double> h_, v_;
  std::vector<double> col_min_, row_min_;
};

class MazeSearch {
 public:
  /// Cheapest a -> b path under `costs`, as segments from b back to a. `ub`
  /// must be no less than the cost of some a -> b path. Returns false,
  /// leaving `out` untouched, when no path is found.
  bool route(const EdgeCosts& costs, GridPt a, GridPt b, double ub,
             std::vector<Seg>& out);

  /// Valid (non-stale) heap pops over every search so far.
  std::int64_t pops() const { return pops_; }

 private:
  struct Node {
    double dist;
    std::int32_t prev;
    std::uint32_t stamp;
  };

  /// (dist bits << 32) | node id; see the heap note above.
  using Key = unsigned __int128;

  void push(Key key);
  Key pop();

  std::uint32_t gen_ = 0;
  std::int64_t pops_ = 0;
  std::vector<Node> node_;
  std::vector<Key> heap_;  ///< binary min-heap
  std::vector<double> lb_x_, lb_y_;  ///< LB to b per column / row
};

}  // namespace mth::route::detail
