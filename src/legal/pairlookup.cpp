#include "mth/legal/pairlookup.hpp"

#include <algorithm>
#include <cstdlib>

#include "mth/util/error.hpp"

namespace mth::legal {

PairLookup::PairLookup(const Floorplan& fp, const RowAssignment& ra) {
  MTH_ASSERT(ra.num_pairs() == fp.num_pairs(),
             "pair lookup: assignment / floorplan mismatch");
  for (int p = 0; p < fp.num_pairs(); ++p) {
    const Dbu c = fp.pair_y_center(p);
    MTH_ASSERT(p == 0 || c > all_.centre.back(),
               "pair lookup: pair centres must rise with the pair index");
    Class& cls = by_class_[ra.is_minority_pair(p) ? 1 : 0];
    cls.centre.push_back(c);
    cls.pair.push_back(p);
    all_.centre.push_back(c);
    all_.pair.push_back(p);
  }
}

int PairLookup::nearest_in(const Class& cls, Dbu y) {
  const auto& c = cls.centre;
  if (c.empty()) return -1;
  const auto k = static_cast<std::size_t>(
      std::lower_bound(c.begin(), c.end(), y) - c.begin());
  if (k == 0) return cls.pair.front();
  if (k == c.size()) return cls.pair.back();
  // c[k - 1] < y <= c[k]: the lower centre wins ties.
  return std::llabs(c[k - 1] - y) <= std::llabs(c[k] - y) ? cls.pair[k - 1]
                                                          : cls.pair[k];
}

int PairLookup::nearest(bool minority, Dbu y) const {
  return nearest_in(by_class_[minority ? 1 : 0], y);
}

int PairLookup::nearest_any(Dbu y) const { return nearest_in(all_, y); }

Dbu nearer_row_y(const Floorplan& fp, int pair, Dbu y) {
  const Row& lower = fp.pair_lower(pair);
  const Row& upper = fp.pair_upper(pair);
  return std::llabs(lower.y_center() - y) <= std::llabs(upper.y_center() - y)
             ? lower.y
             : upper.y;
}

void seed_admissible_pairs(Design& design, const RowAssignment& ra,
                           const PairLookup& lookup) {
  const Floorplan& fp = design.floorplan;
  for (InstId i = 0; i < design.netlist.num_instances(); ++i) {
    Instance& inst = design.netlist.instance(i);
    const bool minority = design.is_minority(i);
    const Dbu yc = inst.pos.y + design.master_of(i).height / 2;
    if (ra.is_minority_pair(fp.row_at_y(yc) / 2) == minority) continue;
    const int p = lookup.nearest(minority, yc);
    if (p >= 0) inst.pos.y = nearer_row_y(fp, p, yc);
  }
}

}  // namespace mth::legal
