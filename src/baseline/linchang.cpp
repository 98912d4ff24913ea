#include "mth/baseline/linchang.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "mth/cluster/kmeans.hpp"
#include "mth/legal/pairlookup.hpp"
#include "mth/util/error.hpp"
#include "mth/util/log.hpp"

namespace mth::baseline {

int auto_minority_pairs(const Design& design, const Library& width_library,
                        double fill) {
  MTH_ASSERT(fill > 0.1 && fill <= 1.0, "baseline: bad fill target");
  Dbu demand = 0;
  for (InstId i = 0; i < design.netlist.num_instances(); ++i) {
    const CellMaster& m = width_library.master(design.netlist.instance(i).master);
    if (m.track_height == TrackHeight::H75T) demand += m.width;
  }
  const Dbu pair_cap = 2 * design.floorplan.core().width();
  const int pairs = static_cast<int>(std::ceil(
      static_cast<double>(demand) / (static_cast<double>(pair_cap) * fill)));
  return std::clamp(pairs, 1, design.floorplan.num_pairs() - 1);
}

KmeansAssignment assign_rows_kmeans(const Design& design, int n_min_pairs,
                                    const BaselineOptions& opt) {
  const Floorplan& fp = design.floorplan;
  MTH_ASSERT(n_min_pairs >= 1 && n_min_pairs < fp.num_pairs(),
             "baseline: N_minR out of range");

  KmeansAssignment out;
  std::vector<Dbu> ys;
  for (InstId i = 0; i < design.netlist.num_instances(); ++i) {
    if (design.is_minority(i)) {
      const Instance& inst = design.netlist.instance(i);
      out.minority_cells.push_back(i);
      ys.push_back(inst.pos.y + design.master_of(i).height / 2);
    }
  }
  MTH_ASSERT(!ys.empty(), "baseline: no minority cells");
  const int k = std::min<int>(n_min_pairs, static_cast<int>(ys.size()));

  cluster::KMeansOptions ko;
  ko.max_iterations = opt.kmeans_max_iterations;
  const auto km = cluster::kmeans_1d(ys, k, ko);

  // Cluster centers claim the nearest free row pair, largest clusters first
  // (they have the strongest pull on displacement).
  std::vector<int> sizes(static_cast<std::size_t>(k), 0);
  for (int a : km.assignment) ++sizes[static_cast<std::size_t>(a)];
  std::vector<int> order(static_cast<std::size_t>(k));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return sizes[static_cast<std::size_t>(a)] > sizes[static_cast<std::size_t>(b)];
  });

  RowAssignment ra = RowAssignment::all_majority(fp.num_pairs());
  std::vector<bool> taken(static_cast<std::size_t>(fp.num_pairs()), false);
  std::vector<int> pair_of_cluster(static_cast<std::size_t>(k), -1);
  int assigned = 0;
  for (int c : order) {
    const double cy = km.centroids[static_cast<std::size_t>(c)].second;
    int best = -1;
    Dbu best_d = INT64_MAX;
    for (int p = 0; p < fp.num_pairs(); ++p) {
      if (taken[static_cast<std::size_t>(p)]) continue;
      const Dbu d = std::llabs(fp.pair_y_center(p) - static_cast<Dbu>(cy));
      if (d < best_d) {
        best_d = d;
        best = p;
      }
    }
    MTH_ASSERT(best >= 0, "baseline: ran out of row pairs");
    taken[static_cast<std::size_t>(best)] = true;
    ra.pair_is_minority[static_cast<std::size_t>(best)] = true;
    pair_of_cluster[static_cast<std::size_t>(c)] = best;
    ++assigned;
  }
  // If k < n_min_pairs (degenerate tiny cases), pad with pairs nearest the
  // already-chosen ones so capacity still matches Flow (2)'s N_minR.
  for (int extra = assigned; extra < n_min_pairs; ++extra) {
    int best = -1;
    Dbu best_d = INT64_MAX;
    for (int p = 0; p < fp.num_pairs(); ++p) {
      if (taken[static_cast<std::size_t>(p)]) continue;
      for (int q = 0; q < fp.num_pairs(); ++q) {
        if (!taken[static_cast<std::size_t>(q)]) continue;
        const Dbu d = std::llabs(fp.pair_y_center(p) - fp.pair_y_center(q));
        if (d < best_d) {
          best_d = d;
          best = p;
        }
      }
    }
    if (best < 0) break;
    taken[static_cast<std::size_t>(best)] = true;
    ra.pair_is_minority[static_cast<std::size_t>(best)] = true;
  }
  out.rows = std::move(ra);
  out.cell_pair.resize(out.minority_cells.size());
  for (std::size_t i = 0; i < out.minority_cells.size(); ++i) {
    out.cell_pair[i] =
        pair_of_cluster[static_cast<std::size_t>(km.assignment[i])];
  }
  return out;
}

legal::AbacusResult legalize_with_assignment(
    Design& design, const RowAssignment& assignment,
    const std::vector<InstId>* bound_cells, const std::vector<int>* bound_pairs) {
  MTH_ASSERT(assignment.num_pairs() == design.floorplan.num_pairs(),
             "baseline: assignment / floorplan mismatch");
  if (bound_cells != nullptr && bound_pairs != nullptr) {
    MTH_ASSERT(bound_cells->size() == bound_pairs->size(),
               "baseline: binding size mismatch");
    const Floorplan& fp = design.floorplan;
    for (std::size_t k = 0; k < bound_cells->size(); ++k) {
      const int p = (*bound_pairs)[k];
      if (p < 0) continue;
      Instance& inst = design.netlist.instance((*bound_cells)[k]);
      const Dbu yc = inst.pos.y + design.master_of((*bound_cells)[k]).height / 2;
      inst.pos.y = legal::nearer_row_y(fp, p, yc);
    }
  }
  // Seed every cell whose current pair class mismatches onto the nearest
  // admissible pair ("move the cells to fit into rows with corresponding
  // track-heights"): unbound minority cells and, crucially, majority cells
  // evicted from freshly chosen minority pairs.
  legal::seed_admissible_pairs(design, assignment,
                               legal::PairLookup(design.floorplan, assignment));

  legal::AbacusOptions opt;
  const Design* dp = &design;
  const RowAssignment* ra = &assignment;
  opt.row_filter = [dp, ra](InstId cell, int row) {
    return dp->is_minority(cell) == ra->is_minority_row(row);
  };
  return legal::abacus_legalize(design, opt);
}

}  // namespace mth::baseline
