#pragma once
// The per-net HPWL cache of the legal module's detailed placement (private
// to the module; the legal tests check it against a copy of the per-use
// rescan it replaced). The swap polish and the improver both cost their moves
// through it and run their swaps through the one sweep below.
//
// The metric of a candidate is the HPWL of the non-clock nets of the moved
// cells, counted by one of two rules the owner picks at construction:
// - Count::PerUse, the polish's historical rule: every net on a, once per
//   use by a, plus every other net on b, once per use by b. A net wired to
//   one cell through two pins counts twice; a net on both a and b counts
//   with a's multiplicity only. The golden flow metrics and the RAP certify
//   window were tuned against this rule, so it is kept bit for bit.
// - Count::PerNet, the improver's rule: every touched net once. Only the
//   touched nets change, so the metric falls exactly when the total HPWL
//   does, and the improver's accepted moves strictly lower it.
// A move is kept when the metric after it is below the metric before it.
//
// Why the cache is exact:
// - Only the candidate's cells move, and its owner moves no other cell, so
//   a touched net's "before" HPWL is its current HPWL. The cache holds every
//   net's current HPWL: built once at construction, and refreshed for the
//   touched nets from the values after() computed each time a move is kept
//   (a rejected move restores its cells). Between candidates the cache's sum
//   is therefore the design's total HPWL, which rc_legalize and the improver
//   read instead of rescanning.
// - after() rescans each distinct touched net once, with the same integer
//   bounding-box arithmetic as net_hpwl().
// - Both sums are Dbu integers, so multiplicity × HPWL per distinct net
//   equals the historical per-use sum exactly.

#include <cstdint>
#include <functional>
#include <vector>

#include "mth/db/design.hpp"
#include "mth/db/pintable.hpp"
#include "mth/legal/rowlist.hpp"

namespace mth::legal::detail {

class SwapMetric {
 public:
  /// How before() and after() count a touched net (file comment).
  enum class Count { PerUse, PerNet };

  /// Cache every net's HPWL at the current positions of the design `pins`
  /// reads. The table (and its design) must outlive the metric, and only
  /// the metric's owner may move the design's cells.
  explicit SwapMetric(const db::PinTable& pins, Count count = Count::PerUse);

  /// Collect the nets of candidate (a, b) — of a alone when b is kInvalidId
  /// — and return the metric at the current positions, read from the cache.
  Dbu before(InstId a, InstId b = kInvalidId);

  /// The metric of the nets collected by the last before(), rescanned at the
  /// current positions (the caller has moved the candidate's cells).
  Dbu after();

  /// The caller keeps the move: the values the last after() found become
  /// the cached HPWLs of the touched nets.
  void accept();

  /// Sum of the cached HPWLs: total_hpwl() of the design whenever no
  /// candidate is open (every move since the last before() was accepted or
  /// undone).
  Dbu total() const;

 private:
  struct Touched {
    NetId net = kInvalidId;
    Dbu uses = 0;      ///< multiplicity in the metric
    bool from_a = false;
    Dbu after = 0;     ///< HPWL found by the last after()
  };

  const db::PinTable& pins_;
  bool per_use_;
  std::vector<Dbu> hp_;               ///< per net: current HPWL
  std::vector<std::uint32_t> mark_;   ///< per net: stamp of the last before()
  std::vector<std::uint32_t> slot_;   ///< per net: index into touched_
  std::uint32_t stamp_ = 0;
  std::vector<Touched> touched_;
};

/// One sweep of adjacent same-row swaps over `rows`, kept when they lower
/// `metric`. The swap keeps the envelope [a.x, b.x + w_b) intact — b lands
/// at a.x, a at b.x + w_b - w_a — so legality and the site grid hold for any
/// width mix, and `rows` follows every kept swap. Cursor rule: a kept swap
/// leaves the cursor on the left cell, which just moved right; a rejected
/// one advances past it. Adds the candidates evaluated to `candidates`,
/// calls `on_accept` (when set) after each kept swap and returns their number.
int swap_sweep(Design& design, RowList& rows, SwapMetric& metric,
               std::int64_t& candidates,
               const std::function<void()>& on_accept = {});

}  // namespace mth::legal::detail
