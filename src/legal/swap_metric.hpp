#pragma once
// The swap polish's acceptance metric (private to the legal module; the
// legal tests check it against a copy of the per-use rescan it replaced).
//
// The metric of a candidate swap of cells a and b is the historical one: the
// HPWL of every non-clock net on a, once per use by a, plus the HPWL of every
// other non-clock net on b, once per use by b. A net wired to one cell
// through two pins counts twice; a net on both a and b counts with a's
// multiplicity only. The polish keeps a swap when the metric after it is
// below the metric before it. The golden flow metrics and the RAP certify
// window were tuned against this metric, so it is kept bit for bit; the
// strict total-HPWL acceptance rule lives in legal/improve instead.
//
// Why the cache is exact:
// - Only a and b move during a candidate, and the polish moves no other
//   cell, so a touched net's "before" HPWL is its current HPWL. The cache
//   holds every net's current HPWL: built once at construction, and
//   refreshed for the touched nets from the values after() computed each
//   time a swap is kept (a rejected swap restores both cells). Between
//   candidates the cache's sum is therefore the design's total HPWL, which
//   rc_legalize reads after each sweep instead of rescanning.
// - after() rescans each distinct touched net once, with the same integer
//   bounding-box arithmetic as net_hpwl().
// - Both sums are Dbu integers, so multiplicity × HPWL per distinct net
//   equals the historical per-use sum exactly.

#include <cstdint>
#include <vector>

#include "mth/db/design.hpp"
#include "mth/db/pintable.hpp"

namespace mth::legal::detail {

class SwapMetric {
 public:
  /// Cache every net's HPWL at the current positions of the design `pins`
  /// reads. The table (and its design) must outlive the metric, and only
  /// the polish may move the design's cells.
  explicit SwapMetric(const db::PinTable& pins);

  /// Collect the nets of candidate (a, b) and return the metric at the
  /// current positions, read from the cache.
  Dbu before(InstId a, InstId b);

  /// The metric of the nets collected by the last before(), rescanned at the
  /// current positions (the caller has moved a and b).
  Dbu after();

  /// The caller keeps the swap: the values after() found become the cached
  /// HPWLs of the touched nets.
  void accept();

  /// Sum of the cached HPWLs: total_hpwl() of the design whenever no
  /// candidate is open (every swap since the last before() was accepted or
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
  std::vector<Dbu> hp_;               ///< per net: current HPWL
  std::vector<std::uint32_t> mark_;   ///< per net: stamp of the last before()
  std::vector<std::uint32_t> slot_;   ///< per net: index into touched_
  std::uint32_t stamp_ = 0;
  std::vector<Touched> touched_;
};

}  // namespace mth::legal::detail
