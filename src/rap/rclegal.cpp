#include "mth/rap/rclegal.hpp"

#include <algorithm>
#include <vector>

#include "mth/db/incremental_hpwl.hpp"
#include "mth/db/metrics.hpp"
#include "mth/legal/pairlookup.hpp"
#include "mth/legal/polish.hpp"
#include "mth/trace/trace.hpp"
#include "mth/util/error.hpp"
#include "mth/util/log.hpp"

namespace mth::rap {
namespace {

/// Median of a vector (in place nth_element); midpoint of the two middles
/// for even sizes.
Dbu median_of(std::vector<Dbu>& v, Dbu fallback) {
  if (v.empty()) return fallback;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  Dbu m = v[mid];
  if (v.size() % 2 == 0) {
    const auto lo = std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    m = (*lo + m) / 2;
  }
  return m;
}

}  // namespace

RcLegalResult rc_legalize(Design& design, const RowAssignment& ra,
                          const RcLegalOptions& opt) {
  // Two names for one routine: prepare_case drives it as an unconstrained
  // detailed-placement polish, which must not pollute the legal/* totals
  // that reconcile against FlowResult::legal_seconds.
  trace::Span span(opt.enforce_assignment ? "legal/rc" : "legal/refine");
  MTH_ASSERT(ra.num_pairs() == design.floorplan.num_pairs(),
             "rclegal: assignment / floorplan mismatch");
  const Floorplan& fp = design.floorplan;
  const Netlist& nl = design.netlist;
  RcLegalResult res;
  // One incremental engine owns every HPWL evaluation in this routine: the
  // build here replaces the historical entry scan, pull moves below are
  // applied through it in O(pins-of-cell), and each post-legalization
  // evaluation is a sync_with() re-sync instead of a fresh total_hpwl()
  // rescan (the pre-engine code paid that full scan twice before the first
  // pass and once more per pass).
  db::IncrementalHpwl ihpwl(design);
  res.hpwl_before = ihpwl.total();

  const bool enforce = opt.enforce_assignment;
  legal::AbacusOptions aopt;
  const Design* dp = &design;
  const RowAssignment* rap = &ra;
  if (enforce) {
    aopt.row_filter = [dp, rap](InstId cell, int row) {
      return dp->is_minority(cell) == rap->is_minority_row(row);
    };
  }

  // Seed: pull every cell vertically into the nearest admissible pair (the
  // fence union for minority cells, its complement for majority cells).
  const legal::PairLookup pairs(fp, ra);
  if (enforce) legal::seed_admissible_pairs(design, ra, pairs);
  legal::AbacusResult ar = legal::abacus_legalize(design, aopt);
  if (!ar.success) return res;

  legal::swap_polish(design);
  Dbu best_hpwl = ihpwl.sync_with();  // abacus + polish moved cells externally
  std::vector<Point> best_pos = placement_snapshot(design);

  // Median-pull refinement: every cell moves (with damping) toward the
  // median of its connected pins — *sequentially*, so later cells see the
  // earlier moves — with y snapped to the nearest admissible pair; then
  // relegalize and keep the iterate while HPWL improves. This is the
  // "optimize within the fences, ignore the starting point" behaviour of
  // the proposed legalization (§IV-B-2). The median buffers are reused
  // across cells: a median depends only on the values pushed, not on what
  // nth_element left in the buffer before.
  const db::PinTable& pin_table = ihpwl.pins();
  std::vector<Dbu> xs, ys;
  for (int pass = 0; pass < opt.refine_passes; ++pass) {
    // Successively gentler pulls; each pass restarts from the best iterate.
    const double damp = pass == 0 ? 1.0 : (pass == 1 ? 0.5 : 0.3);
    for (InstId i = 0; i < nl.num_instances(); ++i) {
      Instance& inst = design.netlist.instance(i);
      const CellMaster& m = design.master_of(i);
      xs.clear();
      ys.clear();
      for (const InstUse& u : pin_table.uses(i)) {
        if (pin_table.is_clock(u.net)) continue;
        for (const db::PinTable::Pin& pin : pin_table.pins(u.net)) {
          if (pin.inst == i) continue;
          const Point p = pin_table.position(pin);
          xs.push_back(p.x);
          ys.push_back(p.y);
        }
      }
      if (xs.empty()) continue;
      const Dbu cx = inst.pos.x + m.width / 2;
      const Dbu cy = inst.pos.y + m.height / 2;
      const Dbu tx = cx + static_cast<Dbu>(damp * static_cast<double>(
                                                       median_of(xs, cx) - cx));
      const Dbu ty = cy + static_cast<Dbu>(damp * static_cast<double>(
                                                       median_of(ys, cy) - cy));
      const int p = enforce ? pairs.nearest(design.is_minority(i), ty)
                            : pairs.nearest_any(ty);
      const Dbu y = p >= 0 ? legal::nearer_row_y(fp, p, ty) : inst.pos.y;
      // Through the engine: O(pins of i) bbox maintenance, and later cells'
      // median pulls see this move via the design (sequential semantics).
      ihpwl.apply_move(i, {std::clamp<Dbu>(tx - m.width / 2, fp.core().lo.x,
                                           fp.core().hi.x - m.width),
                           y});
    }
    MTH_DEBUG << "rclegal pass " << pass << ": pulled hpwl " << ihpwl.total();
    ar = legal::abacus_legalize(design, aopt);
    if (!ar.success) break;
    legal::swap_polish(design);
    const Dbu h = ihpwl.sync_with();
    ++res.passes_used;
    MTH_DEBUG << "rclegal pass " << pass << ": hpwl " << h << " (best "
              << best_hpwl << ")";
    if (h < best_hpwl) {
      best_hpwl = h;
      best_pos = placement_snapshot(design);
    } else {
      // Rejected: restart the next (gentler) pass from the best iterate.
      for (InstId i = 0; i < nl.num_instances(); ++i) {
        design.netlist.instance(i).pos = best_pos[static_cast<std::size_t>(i)];
      }
      ihpwl.sync_with();  // bulk external restore invalidated the caches
    }
  }

  // Restore the best iterate.
  for (InstId i = 0; i < nl.num_instances(); ++i) {
    design.netlist.instance(i).pos = best_pos[static_cast<std::size_t>(i)];
  }
  res.success = true;
  res.hpwl_after = best_hpwl;
  return res;
}

}  // namespace mth::rap
