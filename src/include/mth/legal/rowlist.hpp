#pragma once
// Doubly-linked row structure for detailed placement (Coloquinte-style:
// cellPred/cellNext/rowFirstCell, SNIPPETS.md Snippets 2-3).
//
// A RowList indexes a legal placement by physical row: per instance a pred
// and next link (its left and right neighbor in the same row, kInvalidId at
// the row ends) and per row the first (leftmost) and last (rightmost)
// instance. After the one-time O(n log n) build, or an O(n) link of a row
// order the caller already has (rc_legalize links Abacus's), every neighbor
// query and the one structural update the in-row moves need — swap two
// adjacent cells — is O(1) pointer surgery. That is what lets the swap
// sweep shared by swap_polish and improve_placement, and the improver's
// shifts, run on the per-net HPWL cache instead of re-bucketing and
// re-sorting rows per sweep. mth_lint's row-rescan rule bans row_at_y /
// std::sort from legal/polish and legal/improve so per-move row rescans
// cannot creep back in (the build below is the one sanctioned scan).
//
// The structure tracks *order*, not coordinates: callers move cells
// directly and must keep the list consistent with the x-order of the design
// via swap_adjacent (a shift inside its gap keeps the order). check()
// verifies the full invariant set (pred/next symmetry, row_first/row_last
// reachability, x-sorted order, every instance in exactly one row) against
// the design and is property-tested in rowlist_test against a brute-force
// vector model.

#include <string>
#include <vector>

#include "mth/db/design.hpp"

namespace mth::legal {

class RowList {
 public:
  /// Build from a placed design: instances are bucketed by the row containing
  /// their y and chained in x-order (ties broken by InstId, so the build is
  /// deterministic on any input).
  explicit RowList(const Design& design);

  /// Link rows whose order the caller already has: `rows[r]` lists row r's
  /// instances in (x, id) order, as AbacusResult::rows does. No bucketing
  /// or sorting; O(n). Throws mth::Error unless there is one list per
  /// floorplan row, every instance appears exactly once and each list is
  /// (x, id)-ordered.
  RowList(const Design& design, const std::vector<std::vector<InstId>>& rows);

  int num_rows() const { return static_cast<int>(row_first_.size()); }
  int num_instances() const { return static_cast<int>(next_.size()); }

  /// Leftmost / rightmost instance of a row; kInvalidId when the row is empty.
  InstId row_first(int row) const {
    return row_first_[static_cast<std::size_t>(row)];
  }
  InstId row_last(int row) const {
    return row_last_[static_cast<std::size_t>(row)];
  }

  /// Left / right neighbor in the same row; kInvalidId at the row ends. O(1).
  InstId pred(InstId i) const { return pred_[static_cast<std::size_t>(i)]; }
  InstId next(InstId i) const { return next_[static_cast<std::size_t>(i)]; }

  /// Row currently holding instance `i`. O(1).
  int row_of(InstId i) const { return row_of_[static_cast<std::size_t>(i)]; }

  /// Exchange two adjacent cells of one row: `left` must be pred(right).
  /// After the call `right` precedes `left`. O(1).
  void swap_adjacent(InstId left, InstId right);

  /// Verify every invariant against `design`: pred/next symmetry, row ends
  /// consistent, every instance reachable from exactly one row_first chain,
  /// and chains (x, id)-sorted. Returns false and fills `why` (when given)
  /// on the first violation.
  bool check(const Design& design, std::string* why = nullptr) const;

 private:
  void reset(std::size_t num_instances, std::size_t num_rows);
  /// Chain `cells`, already in row order, as row `row`.
  void link_row(std::size_t row, const std::vector<InstId>& cells);

  std::vector<InstId> pred_;
  std::vector<InstId> next_;
  std::vector<std::int32_t> row_of_;
  std::vector<InstId> row_first_;
  std::vector<InstId> row_last_;
};

}  // namespace mth::legal
