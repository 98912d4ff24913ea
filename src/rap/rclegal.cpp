#include "mth/rap/rclegal.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "mth/db/metrics.hpp"
#include "mth/db/pintable.hpp"
#include "mth/legal/pairlookup.hpp"
#include "mth/legal/polish.hpp"
#include "mth/legal/rowlist.hpp"
#include "mth/trace/trace.hpp"
#include "mth/util/error.hpp"
#include "mth/util/log.hpp"
#include "median.hpp"

namespace mth::rap {
namespace detail {
namespace {

/// The k-th smallest value of v (0-based). v is reordered so that v[k]
/// holds it and no value before v[k] is larger, as std::nth_element leaves
/// it. Up to 64 values (a pull sees about eleven) a quickselect does the
/// work: each round parks the middle element as the pivot and runs a Lomuto
/// partition that swaps unconditionally and advances by the comparison
/// result, so the partition has no data-dependent branch. A run of values
/// equal to the pivot shrinks the range by one per round, which bounds a
/// call at about 64 * 64 / 2 element moves.
Dbu select_kth(std::vector<Dbu>& v, std::size_t k) {
  if (v.size() > 64) {
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
    return v[k];
  }
  Dbu* a = v.data();
  std::size_t lo = 0;
  std::size_t hi = v.size() - 1;
  while (lo < hi) {
    std::swap(a[lo + (hi - lo) / 2], a[hi]);
    const Dbu pivot = a[hi];
    std::size_t i = lo;  // a[lo, i) < pivot <= a[i, j)
    for (std::size_t j = lo; j < hi; ++j) {
      const Dbu x = a[j];
      a[j] = a[i];
      a[i] = x;
      i += static_cast<std::size_t>(x < pivot);
    }
    a[hi] = a[i];
    a[i] = pivot;
    if (k == i) break;
    if (k < i) {
      hi = i - 1;
    } else {
      lo = i + 1;
    }
  }
  return a[k];
}

}  // namespace

// With v[mid] selected, nothing before it is larger, so the lower middle
// of an even size is the largest of v[0, mid).
Dbu median_of(std::vector<Dbu>& v, Dbu fallback) {
  if (v.empty()) return fallback;
  const std::size_t mid = v.size() / 2;
  Dbu m = select_kth(v, mid);
  if (v.size() % 2 == 0) {
    const auto lo = std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    m = (*lo + m) / 2;
  }
  return m;
}

}  // namespace detail

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
  const int n = nl.num_instances();
  RcLegalResult res;
  // One pin table serves the whole call: the entry HPWL below, the median
  // pulls, and every polish sweep's per-net cache. Nothing here changes the
  // netlist or a master, so it stays valid while cells move. No HPWL is
  // rescanned after that: each legalization's HPWL is the sum of the
  // polish's cache, exact after a sweep (src/legal/swap_metric.hpp).
  const db::PinTable pins(design);
  for (NetId net = 0; net < pins.num_nets(); ++net) res.hpwl_before += pins.hpwl(net);

  const bool enforce = opt.enforce_assignment;
  legal::AbacusOptions aopt;
  // Cell and row classes, read per (cell, row) test by Abacus's filter.
  std::vector<char> cell_minority, row_minority;
  if (enforce) {
    cell_minority.resize(static_cast<std::size_t>(n));
    for (InstId i = 0; i < n; ++i) {
      cell_minority[static_cast<std::size_t>(i)] = design.is_minority(i) ? 1 : 0;
    }
    row_minority.resize(static_cast<std::size_t>(fp.num_rows()));
    for (int r = 0; r < fp.num_rows(); ++r) {
      row_minority[static_cast<std::size_t>(r)] = ra.is_minority_row(r) ? 1 : 0;
    }
    aopt.row_filter = [&cell_minority, &row_minority](InstId cell, int row) {
      return cell_minority[static_cast<std::size_t>(cell)] ==
             row_minority[static_cast<std::size_t>(row)];
    };
  }

  // Abacus, then one polish sweep over its rows, linked in the order Abacus
  // placed them. Returns the HPWL after the sweep; nullopt when Abacus
  // finds no row for some cell.
  auto legalize = [&]() -> std::optional<Dbu> {
    const legal::AbacusResult ar = legal::abacus_legalize(design, aopt);
    if (!ar.success) return std::nullopt;
    legal::RowList rows(design, ar.rows);
    return legal::swap_polish(design, pins, rows).hpwl;
  };

  // Seed: pull every cell vertically into the nearest admissible pair (the
  // fence union for minority cells, its complement for majority cells).
  const legal::PairLookup pairs(fp, ra);
  if (enforce) legal::seed_admissible_pairs(design, ra, pairs);
  const std::optional<Dbu> first = legalize();
  if (!first) return res;
  Dbu best_hpwl = *first;
  std::vector<Point> best_pos = placement_snapshot(design);

  // Median-pull refinement: every cell moves (with damping) toward the
  // median of its connected pins — *sequentially*, so later cells see the
  // earlier moves — with y snapped to the nearest admissible pair; then
  // relegalize and keep the iterate while HPWL improves. This is the
  // "optimize within the fences, ignore the starting point" behaviour of
  // the proposed legalization (§IV-B-2). The median buffers are reused
  // across cells: a median depends only on the values pushed, not on the
  // order the last selection left in the buffer.
  std::vector<Dbu> xs, ys;
  std::int64_t pull_moves = 0;
  for (int pass = 0; pass < opt.refine_passes; ++pass) {
    // Successively gentler pulls; each pass restarts from the best iterate.
    const double damp = pass == 0 ? 1.0 : (pass == 1 ? 0.5 : 0.3);
    {
      MTH_SPAN("legal/pull");
      for (InstId i = 0; i < n; ++i) {
        Instance& inst = design.netlist.instance(i);
        const CellMaster& m = design.master_of(i);
        xs.clear();
        ys.clear();
        for (const InstUse& u : pins.uses(i)) {
          if (pins.is_clock(u.net)) continue;
          for (const db::PinTable::Pin& pin : pins.pins(u.net)) {
            if (pin.inst == i) continue;
            const Point p = pins.position(pin);
            xs.push_back(p.x);
            ys.push_back(p.y);
          }
        }
        if (xs.empty()) continue;
        const Dbu cx = inst.pos.x + m.width / 2;
        const Dbu cy = inst.pos.y + m.height / 2;
        const Dbu tx = cx + static_cast<Dbu>(damp * static_cast<double>(
                                                         detail::median_of(xs, cx) - cx));
        const Dbu ty = cy + static_cast<Dbu>(damp * static_cast<double>(
                                                         detail::median_of(ys, cy) - cy));
        const int p = enforce
                          ? pairs.nearest(cell_minority[static_cast<std::size_t>(i)] != 0, ty)
                          : pairs.nearest_any(ty);
        const Dbu y = p >= 0 ? legal::nearer_row_y(fp, p, ty) : inst.pos.y;
        // Written straight into the design: later cells' pulls read it
        // (sequential semantics).
        inst.pos = {std::clamp<Dbu>(tx - m.width / 2, fp.core().lo.x,
                                    fp.core().hi.x - m.width),
                    y};
        ++pull_moves;
      }
    }
    const std::optional<Dbu> h = legalize();
    if (!h) break;
    ++res.passes_used;
    MTH_DEBUG << "rclegal pass " << pass << ": hpwl " << *h << " (best "
              << best_hpwl << ")";
    if (*h < best_hpwl) {
      best_hpwl = *h;
      best_pos = placement_snapshot(design);
    } else {
      // Rejected: restart the next (gentler) pass from the best iterate.
      for (InstId i = 0; i < n; ++i) {
        design.netlist.instance(i).pos = best_pos[static_cast<std::size_t>(i)];
      }
    }
  }
  MTH_COUNT("legal/pull_moves", pull_moves);

  // Restore the best iterate.
  for (InstId i = 0; i < n; ++i) {
    design.netlist.instance(i).pos = best_pos[static_cast<std::size_t>(i)];
  }
  res.success = true;
  res.hpwl_after = best_hpwl;
  return res;
}

}  // namespace mth::rap
