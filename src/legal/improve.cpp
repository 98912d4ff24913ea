#include "mth/legal/improve.hpp"

#include <array>
#include <cstdint>
#include <functional>

#include "mth/db/pintable.hpp"
#include "mth/legal/rowlist.hpp"
#include "mth/trace/trace.hpp"
#include "mth/util/error.hpp"
#include "swap_metric.hpp"

namespace mth::legal {
namespace {

/// Median of the midpoints of the incident nets' other-pin x spans: the
/// x the cell's pins would like to sit at, used as the third shift
/// candidate next to the two gap ends.
Dbu preferred_x(const db::PinTable& pins, InstId i, Dbu cur) {
  std::array<Dbu, 64> mids;  // degree-bounded scratch; extra nets ignored
  std::size_t n = 0;
  for (const InstUse& u : pins.uses(i)) {
    if (pins.is_clock(u.net)) continue;
    BBox bb;
    for (const db::PinTable::Pin& pin : pins.pins(u.net)) {
      if (pin.inst == i) continue;
      bb.add(pins.position(pin));
    }
    if (!bb.valid() || n == mids.size()) continue;
    mids[n++] = (bb.xmin + bb.xmax) / 2;
  }
  if (n == 0) return cur;
  // Median by selection: n is tiny (cell degree), an insertion pass is fine
  // and keeps std::sort out of this module (row-rescan rule).
  for (std::size_t k = 1; k < n; ++k) {
    const Dbu v = mids[k];
    std::size_t j = k;
    for (; j > 0 && mids[j - 1] > v; --j) mids[j] = mids[j - 1];
    mids[j] = v;
  }
  return mids[n / 2];
}

/// Shift sweep: slide each cell inside the free gap between its neighbors.
/// Candidates are the two gap ends and the site-snapped preferred x; the
/// strictly best total wins (earlier candidate on ties). Order within the
/// row is unchanged — x stays in (pred end, next start) — so the RowList
/// needs no relinking.
int shift_sweep(Design& design, const db::PinTable& pins, RowList& rows,
                detail::SwapMetric& metric,
                const std::function<void()>& on_accept) {
  const Floorplan& fp = design.floorplan;
  const Dbu site = fp.site_width();
  int accepted = 0;
  for (int row = 0; row < rows.num_rows(); ++row) {
    const Row& r = fp.row(row);
    for (InstId i = rows.row_first(row); i != kInvalidId; i = rows.next(i)) {
      Instance& inst = design.netlist.instance(i);
      const Dbu w = design.master_of(i).width;
      const Dbu cur = inst.pos.x;
      const InstId p = rows.pred(i);
      const InstId q = rows.next(i);
      const Dbu lo = p != kInvalidId
                         ? design.netlist.instance(p).pos.x +
                               design.master_of(p).width
                         : r.x0;
      const Dbu hi = q != kInvalidId
                         ? design.netlist.instance(q).pos.x - w
                         : snap_down(r.x1 - w - r.x0, site) + r.x0;
      if (hi <= lo) continue;  // no slack in this gap
      Dbu want = preferred_x(pins, i, cur) - w / 2;
      want = snap_near(want - r.x0, site) + r.x0;
      if (want < lo) want = lo;
      if (want > hi) want = hi;
      const std::array<Dbu, 3> cand = {want, lo, hi};
      const Dbu before = metric.before(i);
      Dbu best = before;
      Dbu best_x = cur;
      for (const Dbu x : cand) {
        if (x == cur) continue;
        inst.pos.x = x;
        const Dbu t = metric.after();
        if (t < best) {
          best = t;
          best_x = x;
        }
      }
      inst.pos.x = best_x;
      if (best < before) {
        metric.after();  // the cache takes the HPWLs at best_x
        metric.accept();
        ++accepted;
        on_accept();
      }
    }
  }
  return accepted;
}

}  // namespace

ImproveStats improve_placement(Design& design, const ImproveOptions& opts) {
  MTH_SPAN("legal/improve");
  RowList rows(design);
  const db::PinTable pins(design);
  detail::SwapMetric metric(pins, detail::SwapMetric::Count::PerNet);
  int moves = 0;
  const std::function<void()> on_accept = [&opts, &design, &moves] {
    ++moves;
    if (opts.oracle && opts.oracle_every > 0 && moves % opts.oracle_every == 0) {
      MTH_ASSERT(opts.oracle(design),
                 "improve: oracle rejected the placement after move " +
                     std::to_string(moves));
    }
  };
  std::int64_t candidates = 0;  // the polish's counter; not reported here

  ImproveStats stats;
  stats.hpwl_before = metric.total();
  for (int pass = 0; pass < opts.max_passes; ++pass) {
    const int swaps =
        detail::swap_sweep(design, rows, metric, candidates, on_accept);
    const int shifts = shift_sweep(design, pins, rows, metric, on_accept);
    stats.accepted_swaps += swaps;
    stats.accepted_shifts += shifts;
    ++stats.passes;
    if (swaps + shifts == 0) break;
  }
  stats.hpwl_after = metric.total();
  MTH_COUNT("legal/improve_moves",
            stats.accepted_swaps + stats.accepted_shifts);
  MTH_ASSERT(stats.hpwl_after <= stats.hpwl_before,
             "improve: HPWL increased (acceptance rule violated)");
  if (opts.oracle) {
    MTH_ASSERT(opts.oracle(design),
               "improve: oracle rejected the final placement");
  }
  return stats;
}

}  // namespace mth::legal
