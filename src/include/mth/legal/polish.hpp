#pragma once
// Local wirelength polish on a legal placement.
//
// Each call adds the candidate swaps it evaluated to the trace counter
// legal/polish_candidates and the swaps it kept to legal/polish_accepted.

#include "mth/db/design.hpp"

namespace mth::legal {

/// One sweep of adjacent same-row swaps, accepted when they reduce the HPWL
/// of the touched nets. Swapping cells a (left) and b (right) keeps the
/// envelope [a.x, b.x + w_b) intact — b lands at a.x, a at b.x + w_b - w_a —
/// so legality and the site grid are preserved for any width mix.
/// Returns the number of accepted swaps.
int swap_polish(Design& design);

/// Run swap sweeps until no swap is accepted (at most `max_sweeps`).
int swap_polish_converge(Design& design, int max_sweeps = 4);

}  // namespace mth::legal
