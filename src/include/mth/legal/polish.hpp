#pragma once
// Local wirelength polish on a legal placement.
//
// The polish sweeps adjacent same-row swaps through the legal module's
// per-net HPWL cache (src/legal/swap_metric.hpp); legal::improve_placement
// runs the same sweep on the same cache with its own counting rule.
//
// Each call adds the candidate swaps it evaluated to the trace counter
// legal/polish_candidates and the swaps it kept to legal/polish_accepted.
// A swap_polish call runs in a legal/polish span; in a flow only
// rc_legalize calls it, so the span is that routine's polish time.

#include "mth/db/design.hpp"
#include "mth/db/pintable.hpp"
#include "mth/legal/rowlist.hpp"

namespace mth::legal {

struct PolishResult {
  int accepted = 0;  ///< swaps kept
  Dbu hpwl = 0;      ///< total_hpwl(design) after the sweep
};

/// One sweep of adjacent same-row swaps. A swap of cells a (left) and b
/// (right) is kept when it lowers the HPWL of their non-clock nets counted
/// once per use: each net of a as often as a uses it, each other net of b
/// as often as b uses it. The swap keeps the envelope [a.x, b.x + w_b)
/// intact — b lands at a.x, a at b.x + w_b - w_a — so legality and the site
/// grid are preserved for any width mix.
///
/// `pins` is built over `design`, and `rows` matches its placement (for
/// instance linked from AbacusResult::rows) and follows every kept swap.
/// The returned HPWL is summed from the sweep's per-net cache, not rescanned.
PolishResult swap_polish(Design& design, const db::PinTable& pins, RowList& rows);

/// Run swap sweeps until no swap is accepted (at most `max_sweeps`).
/// Returns the number of accepted swaps.
int swap_polish_converge(Design& design, int max_sweeps = 4);

}  // namespace mth::legal
