#include "mth/db/incremental_hpwl.hpp"

#include "mth/trace/trace.hpp"
#include "mth/util/error.hpp"

namespace mth::db {

IncrementalHpwl::IncrementalHpwl(Design& design)
    : design_(&design), pins_(design) {
  MTH_SPAN("kernel/ihpwl_build");
  rebuild();
}

void IncrementalHpwl::rebuild() {
  const auto num_nets = static_cast<std::size_t>(pins_.num_nets());
  box_.assign(num_nets, BBox{});
  hp_.assign(num_nets, 0);
  seen_.assign(num_nets, 0);
  stamp_ = 0;
  total_ = 0;
  for (NetId n = 0; n < pins_.num_nets(); ++n) {
    if (pins_.is_clock(n)) continue;  // matches net_hpwl's ideal-clock exclusion
    BBox& bb = box_[static_cast<std::size_t>(n)];
    for (const PinTable::Pin& pin : pins_.pins(n)) bb.add(pins_.position(pin));
    const Dbu hp = bb.half_perimeter();
    hp_[static_cast<std::size_t>(n)] = hp;
    total_ += hp;
  }
  saves_.clear();
  frames_.clear();
}

Dbu IncrementalHpwl::apply_move(InstId inst, Point new_pos) {
  Instance& moved = design_->netlist.instance(inst);
  const Point old_pos = moved.pos;
  const Point delta = new_pos - old_pos;
  frames_.push_back({inst, old_pos, static_cast<std::uint32_t>(saves_.size())});
  moved.pos = new_pos;
  ++moves_;
  MTH_COUNT("kernel/ihpwl_moves", 1);
  if (delta == Point{}) return total_;

  ++stamp_;
  for (const InstUse& u : pins_.uses(inst)) {
    const auto ni = static_cast<std::size_t>(u.net);
    if (seen_[ni] == stamp_) continue;  // several pins of inst on this net
    seen_[ni] = stamp_;
    if (pins_.is_clock(u.net)) continue;
    const auto net = pins_.pins(u.net);
    saves_.push_back({u.net, box_[ni], hp_[ni]});

    // Fast path: if every pin of `inst` on this net was strictly interior to
    // the old bbox on both axes, removing those pins cannot shrink the box —
    // the new box is the old box extended by the new pin positions.
    bool interior = true;
    BBox bb = box_[ni];
    for (const PinTable::Pin& pin : net) {
      if (pin.inst != inst) continue;
      const Point np = pins_.position(pin);
      const Point op = np - delta;
      if (op.x <= bb.xmin || op.x >= bb.xmax || op.y <= bb.ymin ||
          op.y >= bb.ymax) {
        interior = false;
        break;
      }
    }
    Dbu hp;
    if (interior) {
      for (const PinTable::Pin& pin : net) {
        if (pin.inst == inst) bb.add(pins_.position(pin));
      }
      hp = bb.half_perimeter();
      box_[ni] = bb;
    } else {
      // Boundary pin: the move may shrink the box — exact O(degree) rescan.
      ++recomputes_;
      MTH_COUNT("kernel/ihpwl_recomputes", 1);
      BBox fresh;
      for (const PinTable::Pin& pin : net) fresh.add(pins_.position(pin));
      hp = fresh.half_perimeter();
      box_[ni] = fresh;
    }
    total_ += hp - hp_[ni];
    hp_[ni] = hp;
  }
  return total_;
}

void IncrementalHpwl::revert() {
  MTH_ASSERT(!frames_.empty(), "ihpwl: revert with empty journal");
  const Frame f = frames_.back();
  frames_.pop_back();
  design_->netlist.instance(f.inst).pos = f.old_pos;
  while (saves_.size() > f.saves_begin) {
    const NetSave& s = saves_.back();
    const auto ni = static_cast<std::size_t>(s.net);
    total_ += s.hp - hp_[ni];
    box_[ni] = s.box;
    hp_[ni] = s.hp;
    saves_.pop_back();
  }
}

Dbu IncrementalHpwl::sync_with() {
  MTH_SPAN("kernel/ihpwl_sync");
  rebuild();
  return total_;
}

}  // namespace mth::db
