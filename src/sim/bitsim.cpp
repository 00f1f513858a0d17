#include "sim/bitsim.hpp"

#include "obs/instrument.hpp"
#include "sim/value.hpp"
#include "util/require.hpp"

namespace fbt {

BitSim::BitSim(const Netlist& netlist) : netlist_(&netlist) {
  require(netlist.finalized(), "BitSim", "netlist must be finalized");
  values_.assign(netlist.size(), 0);
}

void BitSim::eval() {
  settle(*netlist_, values_.data());
  FBT_OBS_COUNTER_ADD("sim.bitsim_gates_evaluated", netlist_->num_gates());
}

void BitSim::next_state(std::span<std::uint64_t> next_state) const {
  require(next_state.size() == netlist_->num_flops(), "BitSim::next_state",
          "span size must equal the flop count");
  for (std::size_t i = 0; i < netlist_->num_flops(); ++i) {
    next_state[i] = values_[netlist_->dff_input(netlist_->flops()[i])];
  }
}

}  // namespace fbt
