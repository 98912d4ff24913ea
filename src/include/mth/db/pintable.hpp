#pragma once
// Flat pin table: every net's pins in one array, each stored as what its
// position needs, so the legalizer's hot loops read a pin with one load of
// the owning instance's position instead of Netlist::pin_position's three
// bounds-checked lookups (instance, master, pin definition).
//
// A pin of an instance stores the instance id and the pin's offset from the
// instance origin; a port stores kInvalidId and the port position. position()
// then computes exactly `inst.pos + offset` (or the port position), the same
// integer arithmetic as pin_position, so every bounding box and HPWL built
// from the table is bit-identical to one built from the netlist.
//
// The table snapshots connectivity, masters and port positions at
// construction and reads instance positions (and the netlist's inst_uses()
// index) live. Moving instances keeps it valid; a structural netlist edit, a
// master change (mLEF swap) or a port move needs a new table.

#include <cstdint>
#include <span>
#include <vector>

#include "mth/db/design.hpp"

namespace mth::db {

class PinTable {
 public:
  /// One pin. `inst == kInvalidId` marks a port, whose position is `offset`.
  struct Pin {
    InstId inst = kInvalidId;
    Point offset;
  };

  /// Build over `design`, whose netlist must outlive the table.
  explicit PinTable(const Design& design);

  int num_nets() const { return static_cast<int>(clock_.size()); }

  /// The pins of `net` in Net::pins order.
  std::span<const Pin> pins(NetId net) const {
    const auto n = static_cast<std::size_t>(net);
    return {pins_.data() + net_begin_[n], pins_.data() + net_begin_[n + 1]};
  }

  /// Net::is_clock of `net`.
  bool is_clock(NetId net) const { return clock_[static_cast<std::size_t>(net)] != 0; }

  /// Netlist::inst_uses() of `inst`.
  std::span<const InstUse> uses(InstId inst) const {
    return (*uses_)[static_cast<std::size_t>(inst)];
  }

  /// Position of `pin` at the instances' current positions; equal to
  /// Netlist::pin_position of the PinRef it was built from.
  Point position(const Pin& pin) const {
    return pin.inst == kInvalidId
               ? pin.offset
               : (*instances_)[static_cast<std::size_t>(pin.inst)].pos + pin.offset;
  }

  /// Half-perimeter of `net` at the current positions; 0 for a clock net,
  /// like net_hpwl().
  Dbu hpwl(NetId net) const;

 private:
  const std::vector<Instance>* instances_;
  const std::vector<std::vector<InstUse>>* uses_;
  std::vector<std::uint32_t> net_begin_;  ///< num_nets + 1 offsets into pins_
  std::vector<Pin> pins_;
  std::vector<char> clock_;
};

}  // namespace mth::db
