#pragma once
// Analytic global placement (the Innovus initial-placement substitute).
//
// SimPL-style loop: a bound-to-bound (B2B) quadratic wirelength model solved
// per axis with Jacobi-preconditioned conjugate gradient, alternated with a
// Tetris-style look-ahead legalization whose result anchors the next QP via
// pseudo-nets of growing weight. Produces the "unconstrained initial
// placement" every flow starts from (paper Fig. 2, step (iii)).

#include <cstdint>

#include "mth/db/design.hpp"

namespace mth::place {

struct GlobalPlaceOptions {
  int max_iterations = 32;        ///< QP/spreading alternations; at least 1
  double target_overflow = 0.07;  ///< stop when overflow ratio drops below
  double anchor_weight = 0.012;   ///< initial pseudo-net weight
  double anchor_growth = 1.45;    ///< multiplicative growth per iteration
  int cg_max_iterations = 120;    ///< per CG solve; 0 runs none
  double cg_tolerance = 1e-5;     ///< stop when |r| < tol * |r0|
  double bin_rows = 3.0;          ///< bin height in row-pairs
  std::uint64_t seed = 7;
};

/// Build a uniform-row floorplan sized for the design's current library
/// (call in mLEF space): core area = cell area / utilization, aspect ratio
/// height/width as given, even number of row pairs. Also pins the design's
/// ports evenly around the core boundary.
void build_uniform_floorplan(Design& design, double utilization,
                             double aspect_ratio);

/// Run global placement. On return every instance has a (possibly
/// overlapping) position with its center inside the core; call the legalizer
/// to snap to rows/sites. Throws mth::Error when max_iterations < 1 or
/// cg_max_iterations < 0, when anchor_weight, anchor_growth, cg_tolerance or
/// target_overflow is negative or not finite, or when bin_rows is not
/// positive and finite. Emits the trace counters place/qp_solves,
/// place/cg_iterations and place/lal_fallbacks once per call, and the spans
/// place/b2b (each axis's system assembly), place/cg (each CG solve) and
/// place/lookahead (each look-ahead spreading).
void global_place(Design& design, const GlobalPlaceOptions& options = {});

/// Density overflow ratio of the current placement over a bin grid:
/// sum(max(0, bin_usage - bin_capacity)) / total cell area. 0 == fully spread.
/// Throws mth::Error when bin_rows is not positive and finite.
double density_overflow(const Design& design, double bin_rows = 3.0);

}  // namespace mth::place
