#pragma once
// Abacus detailed legalization (Spindler et al., ISPD 2008) and its
// row-constrained variant.
//
// Cells are scanned in x order and appended to candidate rows; within a row,
// cells form clusters whose optimal position is the weighted mean of member
// targets, merged backward until non-overlapping (the classic dynamic-
// programming recurrence). The row-constrained mode only admits a cell into
// rows matching its track-height — this is the legalization of the baseline
// [10] ("modifies the Abacus method under row-constraint") and of the final
// mixed-height snap after mLEF revert.

#include <functional>
#include <vector>

#include "mth/db/design.hpp"

namespace mth::legal {

struct AbacusOptions {
  /// Restrict each cell to rows of its own track-height/height (row
  /// constraint). When false, any row of matching height is allowed.
  bool respect_track_height = false;
  /// Extra admission predicate (cell, row index) — the row-assignment-aware
  /// legalizations restrict minority cells to minority rows through this.
  std::function<bool(InstId, int)> row_filter;
  /// Relative weight of vertical displacement in row selection; finite and
  /// non-negative.
  double y_weight = 1.0;
  /// Initial row search window (rows above/below the target), doubled until
  /// a feasible row is found; at least 1. A window is clamped to the row
  /// count, which already reaches every row, so any value at or above it
  /// searches the whole floorplan at once.
  int initial_row_window = 4;
};

struct AbacusResult {
  bool success = false;
  Dbu total_displacement = 0;  ///< vs. positions at call time
  Dbu max_displacement = 0;
  /// Per floorplan row, its cells left to right as placed: the (x, id)
  /// order RowList builds, since every master is wider than 0. Empty when
  /// success is false.
  std::vector<std::vector<InstId>> rows;
};

/// Legalize the design in place: every cell lands on a site inside a row
/// (height-compatible; track-height-compatible when requested), no overlaps.
/// Each cell joins the row whose trial append costs least (|x shift| +
/// y_weight * |y shift|) within the first window that admits it; ties go to
/// the lower row.
/// Throws mth::Error for options outside their documented ranges.
AbacusResult abacus_legalize(Design& design, const AbacusOptions& options = {});

}  // namespace mth::legal
