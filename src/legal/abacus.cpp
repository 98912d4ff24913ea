#include "mth/legal/abacus.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>
#include <vector>

#include "mth/trace/trace.hpp"
#include "mth/util/error.hpp"
#include "mth/util/log.hpp"

namespace mth::legal {
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
  MTH_SPAN("legal/abacus");
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
    // Rows are walked nearest-y first inside a window that doubles until a
    // row accepts the cell; a widened window continues the walk into the
    // rows it adds (every row already walked rejected the cell, and nothing
    // a rejection depends on changes during one cell's search). The choice
    // is the least (cost, row index) over the accepting rows of the first
    // window that has one, which is the row the historical bottom-to-top
    // scan kept (it took only strictly lower costs). Row bottoms rise with
    // the index, so the walk is a merge of a downward run from r_near and an
    // upward run above it, equal distances going to the lower row. The y
    // cost never falls along the walk and bounds the cost from below
    // (cost = x cost + y cost with x cost >= 0), so once the next row's y
    // cost alone exceeds the best cost no row left can win, and one that
    // only matches it can still tie with a lower index, so the walk goes on
    // through it.
    int down = r_near;    // next row to walk at or below r_near
    int up = r_near + 1;  // next row to walk above r_near
    auto dist = [&](int r) { return std::abs(fp.row(r).y - tgt.y); };
    for (int window = std::min(opt.initial_row_window, nrows);; window *= 2) {
      const int lo = std::max(0, r_near - window);
      const int hi = std::min(nrows - 1, r_near + window);
      while (down >= lo || up <= hi) {
        const int r = up > hi || (down >= lo && dist(down) <= dist(up)) ? down : up;
        const Row& row = fp.row(r);
        const double y_cost =
            opt.y_weight * std::abs(static_cast<double>(row.y - tgt.y));
        if (y_cost > best_cost) break;
        if (r == down) {
          --down;
        } else {
          ++up;
        }
        if (y_cost == best_cost && r > best_row) continue;  // loses any tie
        if (!row_allowed(cell, m, r, row)) continue;
        double x_placed;
        if (!trial_append(rows[static_cast<std::size_t>(r)], row,
                          static_cast<double>(tgt.x), weight, m.width, &x_placed)) {
          continue;
        }
        const double cost = std::abs(x_placed - static_cast<double>(tgt.x)) + y_cost;
        if (cost < best_cost || (cost == best_cost && r < best_row)) {
          best_cost = cost;
          best_row = r;
        }
      }
      if (best_row >= 0 || window >= nrows) break;
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
  // preserves non-overlap). Each row's cells, in the order they were packed,
  // become the result's row order.
  const Dbu site = fp.site_width();
  res.rows.resize(static_cast<std::size_t>(nrows));
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
    res.rows[static_cast<std::size_t>(r)] = std::move(rs.cells);
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

}  // namespace mth::legal
