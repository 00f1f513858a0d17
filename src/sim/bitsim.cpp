#include "sim/bitsim.hpp"

#include "obs/instrument.hpp"
#include "sim/value.hpp"
#include "util/require.hpp"

namespace fbt {

BitSim::BitSim(const Netlist& netlist) : netlist_(&netlist) {
  require(netlist.finalized(), "BitSim", "netlist must be finalized");
  values_.assign(netlist.size(), 0);
  faulty_.assign(netlist.size(), 0);
  stamp_.assign(netlist.size(), 0);
  observe_.assign(netlist.size(), 0);
  queued_stamp_.assign(netlist.size(), 0);
  level_queue_.resize(netlist.max_level() + 1);
  use_default_observation_points();
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

void BitSim::use_default_observation_points() {
  std::fill(observe_.begin(), observe_.end(), 0);
  for (const NodeId po : netlist_->outputs()) observe_[po] = 1;
  for (const NodeId ff : netlist_->flops()) observe_[netlist_->dff_input(ff)] = 1;
}

void BitSim::set_observation_points(std::span<const NodeId> points) {
  std::fill(observe_.begin(), observe_.end(), 0);
  for (const NodeId p : points) {
    require(p < observe_.size(), "BitSim::set_observation_points",
            "node id out of range");
    observe_[p] = 1;
  }
}

void BitSim::enqueue_fanouts(NodeId id) {
  for (const NodeId out : netlist_->fanouts(id)) {
    if (!is_combinational(netlist_->gate(out).type)) continue;  // flop D pin
    if (queued_stamp_[out] == current_stamp_) continue;
    queued_stamp_[out] = current_stamp_;
    level_queue_[netlist_->level(out)].push_back(out);
  }
}

std::uint64_t BitSim::fault_propagate(NodeId site, std::uint64_t faulty_word) {
  ++current_stamp_;
  if (current_stamp_ == 0) {
    // Stamp wrapped; reset lazily-invalidated arrays.
    std::fill(stamp_.begin(), stamp_.end(), 0);
    std::fill(queued_stamp_.begin(), queued_stamp_.end(), 0);
    current_stamp_ = 1;
  }

  std::uint64_t detect = 0;
  if (faulty_word == values_[site]) return 0;
  stamp_[site] = current_stamp_;
  faulty_[site] = faulty_word;
  if (observe_[site]) detect |= faulty_word ^ values_[site];
  enqueue_fanouts(site);

  FBT_OBS_COUNTER_ADD("sim.bitsim_faults_propagated", 1);
  std::uint64_t propagation_evals = 0;
  std::uint64_t fanin_words[8];
  std::vector<std::uint64_t> big;
  const unsigned start =
      is_combinational(netlist_->gate(site).type) ? netlist_->level(site) : 0;
  for (unsigned lvl = start; lvl < level_queue_.size(); ++lvl) {
    auto& bucket = level_queue_[lvl];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      ++propagation_evals;
      const NodeId id = bucket[i];
      const Gate& g = netlist_->gate(id);
      const std::size_t n = g.fanins.size();
      std::uint64_t out;
      if (n <= 8) {
        for (std::size_t k = 0; k < n; ++k) {
          fanin_words[k] = faulty_value(g.fanins[k]);
        }
        out = eval_gate<std::uint64_t>(
            g.type, n, [&](std::size_t k) { return fanin_words[k]; });
      } else {
        big.clear();
        for (const NodeId f : g.fanins) big.push_back(faulty_value(f));
        out = eval_gate<std::uint64_t>(
            g.type, n, [&](std::size_t k) { return big[k]; });
      }
      if (out == values_[id]) continue;  // fault effect died here
      stamp_[id] = current_stamp_;
      faulty_[id] = out;
      if (observe_[id]) detect |= out ^ values_[id];
      enqueue_fanouts(id);
    }
    bucket.clear();
  }
  FBT_OBS_COUNTER_ADD("sim.bitsim_fault_gates_evaluated", propagation_evals);
  return detect;
}

}  // namespace fbt
