#pragma once
// Nearest admissible row pair, shared by both row-constraint legalizations
// (rap::rc_legalize and baseline::legalize_with_assignment).
//
// A row pair's centre is (lower.y + upper.y_top()) / 2 = lower.y + h, and
// the floorplan stacks pairs bottom-up without gaps, so centres rise
// strictly with the pair index. Each class's centres are therefore sorted,
// and the pair nearest to y is one of the two centres around y, found by
// binary search. On a tie the lower pair wins: the one a linear scan over
// the pairs in index order, keeping only strictly nearer ones, finds first.

#include <vector>

#include "mth/db/design.hpp"
#include "mth/db/rowassign.hpp"

namespace mth::legal {

class PairLookup {
 public:
  PairLookup(const Floorplan& fp, const RowAssignment& ra);

  /// Nearest pair to `y` among the minority (`minority` true) or majority
  /// pairs; -1 when that class has no pair.
  int nearest(bool minority, Dbu y) const;

  /// Nearest pair to `y` of either class; -1 only for a floorplan without
  /// pairs.
  int nearest_any(Dbu y) const;

 private:
  struct Class {
    std::vector<Dbu> centre;  ///< ascending
    std::vector<int> pair;    ///< parallel to centre
  };
  static int nearest_in(const Class& cls, Dbu y);

  Class by_class_[2];  ///< [majority, minority]
  Class all_;
};

/// Bottom y of the row of pair `pair` whose centre is nearer to `y`; the
/// lower row on a tie.
Dbu nearer_row_y(const Floorplan& fp, int pair, Dbu y);

/// Move every cell whose row pair belongs to the other class into the nearer
/// row of the nearest pair of its own class. A cell whose class has no pair
/// stays where it is.
void seed_admissible_pairs(Design& design, const RowAssignment& ra,
                           const PairLookup& lookup);

}  // namespace mth::legal
