#pragma once
// Linked-list detailed-placement improver (legal/improve span).
//
// improve_placement refines a *legal* placement in place with two in-row
// move classes over the RowList structure. Both are costed through the swap
// polish's per-net HPWL cache (src/legal/swap_metric.hpp), built over one
// db::PinTable, with each touched net counted once, so a move is accepted
// only on a strict total-HPWL decrease:
//
//   * swap  — exchange two adjacent same-row cells (envelope-preserving:
//             right cell to left.x, left cell to right.x + w_r - w_l),
//             through the polish's own sweep.
//   * shift — slide one cell inside the free gap between its neighbors
//             [pred end, next start), trying the gap ends and the site-
//             snapped median of its incident nets' other-pin spans.
//
// The polish sweeps the same swaps but counts a net once per use (a net a
// cell reaches through two pins counts twice), which can keep a swap that
// raises total HPWL; the improver's rule cannot.
//
// Both move classes keep every cell inside its original row and inside the
// envelope spanned by its neighbors, so row assignments, fences, and
// non-overlap are preserved by construction; combined with strict-decrease
// acceptance the result is oracle-clean whenever the input was, and the
// final HPWL is <= the input HPWL (monotone non-increasing across passes,
// equal only when no move helps). The improver is sequential and
// deterministic: results are bit-identical at any MTH_THREADS setting.
//
// Neighbor queries are O(1) via RowList — mth_lint's row-rescan rule bans
// per-move row rescans (row_at_y / std::sort) from this module, and its
// pin-position-loop rule keeps Netlist::pin_position out of its loops.
//
// The optional oracle hook lets callers grade the placement mid-run without
// a legal -> verify link-time dependency (verify depends on rap): tests and
// mth_fuzz inject a verify::check_placement-based callback; a false return
// raises mth::Error at the offending move count.

#include <cstdint>
#include <functional>

#include "mth/db/design.hpp"

namespace mth::legal {

struct ImproveOptions {
  int max_passes = 8;        ///< full sweeps; stops early when a pass is dry
  /// Placement grader, called after every `oracle_every` accepted moves and
  /// once after the final pass (0 = final check only, when set). Returning
  /// false aborts with mth::Error.
  std::function<bool(const Design&)> oracle;
  int oracle_every = 0;
};

struct ImproveStats {
  int passes = 0;
  int accepted_swaps = 0;
  int accepted_shifts = 0;
  Dbu hpwl_before = 0;
  Dbu hpwl_after = 0;

  Dbu delta() const { return hpwl_before - hpwl_after; }
};

/// Refine `design` in place; see file comment for the move set and
/// guarantees. `design` must be legal (row-aligned, overlap-free) on entry.
ImproveStats improve_placement(Design& design, const ImproveOptions& opts = {});

}  // namespace mth::legal
