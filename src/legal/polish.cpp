#include "mth/legal/polish.hpp"

#include <algorithm>
#include <cstdint>

#include "mth/trace/trace.hpp"
#include "swap_metric.hpp"

namespace mth::legal {

namespace detail {

SwapMetric::SwapMetric(const db::PinTable& pins, Count count)
    : pins_(pins),
      per_use_(count == Count::PerUse),
      hp_(static_cast<std::size_t>(pins_.num_nets())),
      mark_(hp_.size(), 0),
      slot_(hp_.size(), 0) {
  for (NetId n = 0; n < pins_.num_nets(); ++n) {
    hp_[static_cast<std::size_t>(n)] = pins_.hpwl(n);
  }
}

Dbu SwapMetric::before(InstId a, InstId b) {
  if (++stamp_ == 0) {  // wrapped: forget every mark
    std::fill(mark_.begin(), mark_.end(), 0);
    stamp_ = 1;
  }
  touched_.clear();
  auto collect = [this](InstId cell, bool from_a) {
    for (const InstUse& u : pins_.uses(cell)) {
      if (pins_.is_clock(u.net)) continue;
      const auto n = static_cast<std::size_t>(u.net);
      if (mark_[n] != stamp_) {
        mark_[n] = stamp_;
        slot_[n] = static_cast<std::uint32_t>(touched_.size());
        touched_.push_back({u.net, 1, from_a, 0});
      } else if (per_use_ && touched_[slot_[n]].from_a == from_a) {
        ++touched_[slot_[n]].uses;
      }  // else counted once, or a net of a met again on b: a's count stands
    }
  };
  collect(a, true);
  if (b != kInvalidId) collect(b, false);
  Dbu sum = 0;
  for (const Touched& t : touched_) {
    sum += t.uses * hp_[static_cast<std::size_t>(t.net)];
  }
  return sum;
}

Dbu SwapMetric::after() {
  Dbu sum = 0;
  for (Touched& t : touched_) {
    t.after = pins_.hpwl(t.net);
    sum += t.uses * t.after;
  }
  return sum;
}

void SwapMetric::accept() {
  for (const Touched& t : touched_) hp_[static_cast<std::size_t>(t.net)] = t.after;
}

Dbu SwapMetric::total() const {
  Dbu sum = 0;
  for (const Dbu h : hp_) sum += h;
  return sum;
}

int swap_sweep(Design& design, RowList& rows, SwapMetric& metric,
               std::int64_t& candidates,
               const std::function<void()>& on_accept) {
  int accepted = 0;
  for (int row = 0; row < rows.num_rows(); ++row) {
    InstId a = rows.row_first(row);
    while (a != kInvalidId) {
      const InstId b = rows.next(a);
      if (b == kInvalidId) break;
      Instance& ia = design.netlist.instance(a);
      Instance& ib = design.netlist.instance(b);
      const Dbu wa = design.master_of(a).width;
      const Dbu wb = design.master_of(b).width;
      const Dbu ax = ia.pos.x, bx = ib.pos.x;
      ++candidates;
      const Dbu before = metric.before(a, b);
      ib.pos.x = ax;
      ia.pos.x = bx + wb - wa;
      if (metric.after() < before) {
        metric.accept();
        rows.swap_adjacent(a, b);
        ++accepted;
        if (on_accept) on_accept();
      } else {
        ia.pos.x = ax;
        ib.pos.x = bx;
        a = b;
      }
    }
  }
  return accepted;
}

}  // namespace detail

PolishResult swap_polish(Design& design, const db::PinTable& pins,
                         RowList& rows) {
  MTH_SPAN("legal/polish");
  detail::SwapMetric metric(pins);
  std::int64_t candidates = 0;
  PolishResult res;
  res.accepted = detail::swap_sweep(design, rows, metric, candidates);
  res.hpwl = metric.total();
  MTH_COUNT("legal/polish_candidates", candidates);
  MTH_COUNT("legal/polish_accepted", res.accepted);
  return res;
}

int swap_polish_converge(Design& design, int max_sweeps) {
  const db::PinTable pins(design);
  RowList rows(design);
  detail::SwapMetric metric(pins);
  std::int64_t candidates = 0;
  int total = 0;
  for (int s = 0; s < max_sweeps; ++s) {
    const int accepted = detail::swap_sweep(design, rows, metric, candidates);
    total += accepted;
    if (accepted == 0) break;
  }
  MTH_COUNT("legal/polish_candidates", candidates);
  MTH_COUNT("legal/polish_accepted", total);
  return total;
}

}  // namespace mth::legal
