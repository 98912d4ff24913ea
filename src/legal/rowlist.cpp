#include "mth/legal/rowlist.hpp"

#include <algorithm>
#include <sstream>

#include "mth/util/error.hpp"

namespace mth::legal {

RowList::RowList(const Design& design) {
  const Netlist& nl = design.netlist;
  const std::size_t r = static_cast<std::size_t>(design.floorplan.num_rows());
  reset(static_cast<std::size_t>(nl.num_instances()), r);

  // The one sanctioned row scan: bucket by containing row, sort by (x, id).
  std::vector<std::vector<InstId>> buckets(r);
  for (InstId i = 0; i < nl.num_instances(); ++i) {
    buckets[static_cast<std::size_t>(
                design.floorplan.row_at_y(nl.instance(i).pos.y))]
        .push_back(i);
  }
  for (std::size_t row = 0; row < r; ++row) {
    std::vector<InstId>& b = buckets[row];
    std::sort(b.begin(), b.end(), [&](InstId a, InstId c) {
      const Dbu xa = nl.instance(a).pos.x;
      const Dbu xc = nl.instance(c).pos.x;
      return xa != xc ? xa < xc : a < c;
    });
    link_row(row, b);
  }
}

RowList::RowList(const Design& design,
                 const std::vector<std::vector<InstId>>& rows) {
  const Netlist& nl = design.netlist;
  const int n = nl.num_instances();
  MTH_ASSERT(static_cast<int>(rows.size()) == design.floorplan.num_rows(),
             "rowlist: one row order per floorplan row expected");
  reset(static_cast<std::size_t>(n), rows.size());
  std::size_t linked = 0;
  for (std::size_t row = 0; row < rows.size(); ++row) {
    const std::vector<InstId>& cells = rows[row];
    for (std::size_t k = 0; k < cells.size(); ++k) {
      const InstId i = cells[k];
      MTH_ASSERT(i >= 0 && i < n && row_of_[static_cast<std::size_t>(i)] < 0,
                 "rowlist: row order lists an instance twice or out of range");
      row_of_[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(row);
      if (k > 0) {
        const InstId p = cells[k - 1];
        const Dbu xp = nl.instance(p).pos.x;
        const Dbu xi = nl.instance(i).pos.x;
        MTH_ASSERT(xp < xi || (xp == xi && p < i),
                   "rowlist: row order is not (x, id)-sorted");
      }
    }
    linked += cells.size();
    link_row(row, cells);
  }
  MTH_ASSERT(linked == static_cast<std::size_t>(n),
             "rowlist: row order misses an instance");
}

void RowList::reset(std::size_t num_instances, std::size_t num_rows) {
  pred_.assign(num_instances, kInvalidId);
  next_.assign(num_instances, kInvalidId);
  row_of_.assign(num_instances, -1);
  row_first_.assign(num_rows, kInvalidId);
  row_last_.assign(num_rows, kInvalidId);
}

void RowList::link_row(std::size_t row, const std::vector<InstId>& cells) {
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const auto i = static_cast<std::size_t>(cells[k]);
    row_of_[i] = static_cast<std::int32_t>(row);
    pred_[i] = k > 0 ? cells[k - 1] : kInvalidId;
    next_[i] = k + 1 < cells.size() ? cells[k + 1] : kInvalidId;
  }
  row_first_[row] = cells.empty() ? kInvalidId : cells.front();
  row_last_[row] = cells.empty() ? kInvalidId : cells.back();
}

void RowList::swap_adjacent(InstId left, InstId right) {
  MTH_ASSERT(next_[static_cast<std::size_t>(left)] == right,
             "rowlist: swap_adjacent cells are not adjacent");
  const InstId p = pred_[static_cast<std::size_t>(left)];
  const InstId q = next_[static_cast<std::size_t>(right)];
  // p <-> left <-> right <-> q   becomes   p <-> right <-> left <-> q
  pred_[static_cast<std::size_t>(right)] = p;
  next_[static_cast<std::size_t>(right)] = left;
  pred_[static_cast<std::size_t>(left)] = right;
  next_[static_cast<std::size_t>(left)] = q;
  const std::size_t row = static_cast<std::size_t>(
      row_of_[static_cast<std::size_t>(left)]);
  if (p != kInvalidId) {
    next_[static_cast<std::size_t>(p)] = right;
  } else {
    row_first_[row] = right;
  }
  if (q != kInvalidId) {
    pred_[static_cast<std::size_t>(q)] = left;
  } else {
    row_last_[row] = left;
  }
}

bool RowList::check(const Design& design, std::string* why) const {
  const Netlist& nl = design.netlist;
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (num_instances() != nl.num_instances() ||
      num_rows() != design.floorplan.num_rows()) {
    return fail("rowlist: size mismatch with design");
  }
  std::vector<char> seen(static_cast<std::size_t>(num_instances()), 0);
  for (int row = 0; row < num_rows(); ++row) {
    InstId prev = kInvalidId;
    for (InstId i = row_first(row); i != kInvalidId; i = next(i)) {
      std::ostringstream at;
      at << "rowlist: row " << row << ", inst " << i << ": ";
      if (seen[static_cast<std::size_t>(i)] != 0) {
        return fail(at.str() + "reached twice");
      }
      seen[static_cast<std::size_t>(i)] = 1;
      if (row_of(i) != row) return fail(at.str() + "row_of mismatch");
      if (pred(i) != prev) return fail(at.str() + "pred/next asymmetry");
      if (prev != kInvalidId) {
        const Dbu xp = nl.instance(prev).pos.x;
        const Dbu xi = nl.instance(i).pos.x;
        if (xp > xi || (xp == xi && prev > i)) {
          return fail(at.str() + "x order violated");
        }
      }
      prev = i;
    }
    if (row_last(row) != prev) return fail("rowlist: row_last mismatch");
  }
  for (InstId i = 0; i < nl.num_instances(); ++i) {
    if (seen[static_cast<std::size_t>(i)] == 0) {
      return fail("rowlist: inst " + std::to_string(i) +
                  " unreachable from any row_first");
    }
  }
  return true;
}

}  // namespace mth::legal
