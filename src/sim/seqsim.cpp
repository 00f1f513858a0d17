#include "sim/seqsim.hpp"

#include <algorithm>

#include "obs/instrument.hpp"
#include "sim/value.hpp"
#include "util/require.hpp"

namespace fbt {

SeqSim::SeqSim(const Netlist& netlist) : netlist_(&netlist) {
  require(netlist.finalized(), "SeqSim", "netlist must be finalized");
  values_.assign(netlist.size(), 0);
  prev_values_.assign(netlist.size(), 0);
  state_.assign(netlist.num_flops(), 0);
  flop_d_.reserve(netlist.num_flops());
  for (const NodeId flop : netlist.flops()) {
    flop_d_.push_back(netlist.dff_input(flop));
  }
}

void SeqSim::load_state(std::span<const std::uint8_t> state) {
  require(state.size() == netlist_->num_flops(), "SeqSim::load_state",
          "state size must equal the flop count");
  // settle() reads bytes as exactly 0 or 1; normalize like step()'s inputs.
  std::transform(state.begin(), state.end(), state_.begin(),
                 [](std::uint8_t v) -> std::uint8_t { return v ? 1 : 0; });
  cycle_ = 0;
  have_prev_ = false;
}

void SeqSim::load_reset_state() {
  std::fill(state_.begin(), state_.end(), 0);
  cycle_ = 0;
  have_prev_ = false;
}

SeqStep SeqSim::step(std::span<const std::uint8_t> pi_values,
                     std::span<const std::uint8_t> held) {
  require(pi_values.size() == netlist_->num_inputs(), "SeqSim::step",
          "primary input vector size mismatch");
  require(held.empty() || held.size() == netlist_->num_flops(),
          "SeqSim::step", "held mask size mismatch");

  values_.swap(prev_values_);
  std::uint8_t* const values = values_.data();
  std::uint8_t* const state = state_.data();
  const std::size_t num_flops = state_.size();

  // Sources.
  const NodeId* const inputs = netlist_->inputs().data();
  for (std::size_t i = 0; i < pi_values.size(); ++i) {
    values[inputs[i]] = pi_values[i] ? 1 : 0;
  }
  const NodeId* const flops = netlist_->flops().data();
  for (std::size_t i = 0; i < num_flops; ++i) values[flops[i]] = state[i];
  settle(*netlist_, values);
#if FBT_OBS_ENABLED
  gates_evaluated_.add(netlist_->num_gates());
  cycles_stepped_.add(1);
#endif

  // Switching activity vs. the previous settled cycle.
  SeqStep result;
  if (have_prev_) {
    const std::uint8_t* const prev = prev_values_.data();
    const std::size_t num_nodes = values_.size();
    std::size_t toggled = 0;
    for (std::size_t id = 0; id < num_nodes; ++id) {
      toggled += values[id] != prev[id];
    }
    result.toggled_lines = toggled;
    result.switching_percent = netlist_->num_lines() == 0
                                   ? 0.0
                                   : 100.0 * result.toggled_lines /
                                         static_cast<double>(
                                             netlist_->num_lines());
  }
  have_prev_ = true;

  // State update (with optional per-flop hold).
  const NodeId* const flop_d = flop_d_.data();
  if (held.empty()) {
    for (std::size_t i = 0; i < num_flops; ++i) state[i] = values[flop_d[i]];
  } else {
    for (std::size_t i = 0; i < num_flops; ++i) {
      if (!held[i]) state[i] = values[flop_d[i]];
    }
  }
  ++cycle_;
  return result;
}

SeqSim::Snapshot SeqSim::snapshot() const {
  return Snapshot{values_, prev_values_, state_, cycle_, have_prev_};
}

void SeqSim::snapshot_into(Snapshot& out) const {
  out.values = values_;
  out.prev_values = prev_values_;
  out.state = state_;
  out.cycle = cycle_;
  out.have_prev = have_prev_;
}

void SeqSim::restore(const Snapshot& snap) {
  require(snap.values.size() == values_.size() &&
              snap.state.size() == state_.size(),
          "SeqSim::restore", "snapshot is for a different netlist");
  values_ = snap.values;
  prev_values_ = snap.prev_values;
  state_ = snap.state;
  cycle_ = snap.cycle;
  have_prev_ = snap.have_prev;
}

std::vector<std::uint8_t> SeqSim::outputs() const {
  std::vector<std::uint8_t> out;
  out.reserve(netlist_->num_outputs());
  for (const NodeId po : netlist_->outputs()) out.push_back(values_[po]);
  return out;
}

}  // namespace fbt
