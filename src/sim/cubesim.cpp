#include "sim/cubesim.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace fbt {

CubeSim::CubeSim(const Netlist& netlist) : netlist_(&netlist) {
  require(netlist.finalized(), "CubeSim", "netlist must be finalized");
  values_.assign(netlist.size(), Val3::kX);
}

void CubeSim::clear() {
  std::fill(values_.begin(), values_.end(), Val3::kX);
}

void CubeSim::eval() { settle(*netlist_, values_.data()); }

std::size_t CubeSim::specified_next_state_count() const {
  std::size_t count = 0;
  for (const NodeId ff : netlist_->flops()) {
    if (values_[netlist_->dff_input(ff)] != Val3::kX) ++count;
  }
  return count;
}

}  // namespace fbt
