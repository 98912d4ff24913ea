#include "mth/db/pintable.hpp"

namespace mth::db {

PinTable::PinTable(const Design& design)
    : instances_(&design.netlist.instances()),
      uses_(&design.netlist.inst_uses()) {
  const Netlist& nl = design.netlist;
  const auto num_nets = static_cast<std::size_t>(nl.num_nets());
  std::size_t num_pins = 0;
  for (const Net& net : nl.nets()) num_pins += net.pins.size();
  pins_.reserve(num_pins);
  net_begin_.reserve(num_nets + 1);
  clock_.reserve(num_nets);
  net_begin_.push_back(0);
  for (const Net& net : nl.nets()) {
    for (const PinRef& ref : net.pins) {
      if (ref.is_port()) {
        pins_.push_back({kInvalidId, nl.port(ref.pin).pos});
      } else {
        const CellMaster& m = design.master_of(ref.inst);
        pins_.push_back({ref.inst, m.pins.at(static_cast<std::size_t>(ref.pin)).offset});
      }
    }
    net_begin_.push_back(static_cast<std::uint32_t>(pins_.size()));
    clock_.push_back(net.is_clock ? 1 : 0);
  }
}

Dbu PinTable::hpwl(NetId net) const {
  if (is_clock(net)) return 0;
  BBox bb;
  for (const Pin& pin : pins(net)) bb.add(position(pin));
  return bb.half_perimeter();
}

}  // namespace mth::db
