#pragma once
// Global routing (the Innovus route substitute; DESIGN.md §2).
//
// Per net: Prim MST over the pins (Manhattan metric), each tree edge
// realized as an L-shaped path over a gcell grid, bend chosen by congestion;
// overflowed edges trigger PathFinder-style maze rip-up-and-reroute with
// present + history costs. Outputs per-net routed length and the tree
// topology (parent/edge-length arrays) the Elmore STA consumes.
//
// The reroute's maze search is Dijkstra bounded by A*-style pruning: a
// relaxation is dropped when its distance plus a lower bound to the target
// (the cheapest current edge of every column and row gap still to cross)
// exceeds an upper bound (the cheapest of the edge's previous route and its
// two L paths, each summed in place). It pops in Dijkstra's (distance, node
// id) order from a binary heap of packed keys, so its routes equal plain
// Dijkstra's bit for bit. That needs finite, non-negative edge costs, which
// route_design guarantees by rejecting (mth::Error) layers_per_dir <= 0, a
// wire_pitch that is not positive and finite, and a history_increment that
// is negative or not finite. It also rejects a negative gcell_size and a
// negative ripup_passes, which no setting means.
//
// Absolute wirelength will differ from a commercial detailed router, but the
// placement-quality ordering between flows — what Table V compares — is
// preserved: longer HPWL means longer MST paths and more congestion detour.

#include <cstdint>
#include <vector>

#include "mth/db/design.hpp"

namespace mth::route {

struct RouterOptions {
  /// Gcell edge length in DBU; 0 = auto (about 6 row heights). Negative
  /// throws mth::Error.
  Dbu gcell_size = 0;
  /// Routing tracks per gcell boundary per direction (capacity model:
  /// 3 layers x gcell_size / pitch).
  double wire_pitch = 80.0;
  int layers_per_dir = 3;
  /// Rip-up-and-reroute passes; 0 keeps the L-path routes. Negative throws
  /// mth::Error.
  int ripup_passes = 3;
  double history_increment = 0.6;
  /// Nets with more pins than this skip maze reroute (clock-tree scale).
  int max_reroute_degree = 32;
};

/// Routed topology of one net, indexed like Net::pins (node i's parent is
/// another pin position; parent[driver] == -1).
struct NetRoute {
  std::vector<int> parent;
  std::vector<Dbu> edge_length;  ///< routed length of the edge to parent
  Dbu length = 0;                ///< total routed wirelength of the net
};

struct RouteResult {
  std::vector<NetRoute> nets;    ///< index == NetId (clock nets: empty)
  Dbu total_wirelength = 0;
  int overflowed_edges = 0;      ///< grid edges above capacity after RRR
  double max_utilization = 0.0;  ///< worst edge usage / capacity
  int grid_nx = 0, grid_ny = 0;
};

RouteResult route_design(const Design& design, const RouterOptions& options = {});

}  // namespace mth::route
