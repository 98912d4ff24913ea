#pragma once
// Incremental HPWL engine: maintains per-net bounding boxes so a candidate
// move costs O(pins of the moved instance) instead of the O(netlist) rescan
// of total_hpwl(). Exactness contract: after any sequence of apply_move /
// revert / sync_with calls, total() == total_hpwl(design) bit-for-bit —
// everything is integer Dbu arithmetic on the same pin positions metrics.cpp
// scans (read through a db::PinTable built with the engine), including the
// clock-net exclusion (property-tested in db_test).
//
// The fast path extends a net's bbox when every moved pin's old position was
// strictly inside it on both axes (removal can't shrink the box, so the new
// box is just the old box grown by the new pin positions). A pin on the bbox
// boundary forces an exact O(degree) net recompute — counted on the
// kernel/ihpwl_recomputes trace counter so a workload that defeats the fast
// path is visible in traces.
//
// Moves are journaled (LIFO): revert() undoes the most recent un-reverted
// apply_move exactly, restoring the instance position and every touched
// net's cached box. sync_with() re-syncs after *external* bulk mutation by
// rebuilding the caches in place; it clears the journal.
//
// The engine serves legal::improve_placement, whose moves are costed on the
// total HPWL and undone with revert(), and bench_micro_kernels, which times
// it against the per-move rescan. rap::rc_legalize does not use it: its
// median pulls are accepted without a cost, and it reads each pass's HPWL
// from the swap polish's per-net cache.

#include <cstdint>
#include <vector>

#include "mth/db/design.hpp"
#include "mth/db/pintable.hpp"

namespace mth::db {

class IncrementalHpwl {
 public:
  /// Full build over `design` (kernel/ihpwl_build span). The engine keeps a
  /// pointer to `design` and owns position updates for instances it moves:
  /// callers mutate through apply_move, or mutate externally and re-sync
  /// with sync_with(). `design` must outlive the engine; structural netlist
  /// edits (add_*/connect) and master changes invalidate it entirely —
  /// rebuild instead.
  explicit IncrementalHpwl(Design& design);

  /// Current total HPWL; equals total_hpwl(*design) at all times.
  Dbu total() const { return total_; }

  /// Move `inst` to `new_pos` (updating the design) and return the new
  /// total. O(pins of inst) unless a moved pin sat on a net-bbox boundary.
  Dbu apply_move(InstId inst, Point new_pos);

  /// Undo the most recent un-reverted apply_move exactly (LIFO).
  void revert();

  /// Accept the design's current positions after external mutation:
  /// rebuilds the per-net caches (kernel/ihpwl_sync span) and clears the
  /// journal. Returns the new total.
  Dbu sync_with();

  /// Moves applied since construction (kernel/ihpwl_moves counter).
  std::int64_t moves() const { return moves_; }
  /// Slow-path exact net recomputes among them (boundary-pin shrinks).
  std::int64_t recomputes() const { return recomputes_; }

 private:
  struct NetSave {
    NetId net = kInvalidId;
    BBox box;
    Dbu hp = 0;
  };
  struct Frame {
    InstId inst = kInvalidId;
    Point old_pos;
    std::uint32_t saves_begin = 0;
  };

  void rebuild();

  Design* design_ = nullptr;
  PinTable pins_;
  std::vector<BBox> box_;       // per net; unused for clock nets
  std::vector<Dbu> hp_;         // cached half-perimeter; 0 for clock nets
  Dbu total_ = 0;
  std::vector<NetSave> saves_;  // journal storage, framed by frames_
  std::vector<Frame> frames_;
  std::vector<std::uint32_t> seen_;  // per-net stamp: dedupe multi-pin nets
  std::uint32_t stamp_ = 0;
  std::int64_t moves_ = 0;
  std::int64_t recomputes_ = 0;
};

}  // namespace mth::db
