#include "sim/seqsim.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <tuple>

#include "obs/instrument.hpp"
#include "sim/value.hpp"
#include "util/require.hpp"

namespace fbt {

namespace {

// The reductions of eval_gate: BUF/NOT are one-input AND/NAND and
// CONST1/CONST0 zero-input AND/NAND.
enum class ReduceOp : std::uint8_t { kAnd, kOr, kXor };

struct Reduction {
  ReduceOp op;
  std::uint8_t invert;
};

Reduction reduction_of(GateType type) {
  switch (type) {
    case GateType::kConst1:
    case GateType::kBuf:
    case GateType::kAnd:  return {ReduceOp::kAnd, 0};
    case GateType::kConst0:
    case GateType::kNot:
    case GateType::kNand: return {ReduceOp::kAnd, 1};
    case GateType::kOr:   return {ReduceOp::kOr, 0};
    case GateType::kNor:  return {ReduceOp::kOr, 1};
    case GateType::kXor:  return {ReduceOp::kXor, 0};
    case GateType::kXnor: return {ReduceOp::kXor, 1};
    default:              throw_source_has_no_function(type);
  }
}

// Fanin counts 0-4 get a fixed-count loop; kAnyCount reads the run's count.
constexpr std::uint32_t kAnyCount = 5;

// One run of 0/1 bytes. Count 0 is a constant: an empty AND is 1.
// Cache-line aligned: these loops are most of a trajectory's time, and
// without it their placement, and perfbench's t44_hold wall time (~15%),
// moved with the size of unrelated code linked before this file.
template <ReduceOp kOp, std::uint32_t kCount>
[[gnu::aligned(64)]] void eval_run(std::uint8_t* values, const NodeId* outs,
                                   const NodeId* fanins, std::uint32_t size,
                                   std::uint32_t count, std::uint8_t invert) {
  const std::uint32_t n = kCount == kAnyCount ? count : kCount;
  for (std::uint32_t g = 0; g < size; ++g, fanins += n) {
    std::uint8_t acc = 1;
    if constexpr (kCount != 0) {
      acc = values[fanins[0]];
      for (std::uint32_t k = 1; k < n; ++k) {
        const std::uint8_t v = values[fanins[k]];
        if constexpr (kOp == ReduceOp::kAnd) acc &= v;
        if constexpr (kOp == ReduceOp::kOr) acc |= v;
        if constexpr (kOp == ReduceOp::kXor) acc ^= v;
      }
    }
    values[outs[g]] = acc ^ invert;
  }
}

template <ReduceOp kOp>
constexpr std::array kRunKernelsFor{
    &eval_run<kOp, 0>, &eval_run<kOp, 1>, &eval_run<kOp, 2>,
    &eval_run<kOp, 3>, &eval_run<kOp, 4>, &eval_run<kOp, kAnyCount>};

// Indexed by [op][min(count, kAnyCount)].
constexpr std::array kRunKernels{kRunKernelsFor<ReduceOp::kAnd>,
                                 kRunKernelsFor<ReduceOp::kOr>,
                                 kRunKernelsFor<ReduceOp::kXor>};

}  // namespace

SeqSim::SeqSim(const Netlist& netlist) : netlist_(&netlist) {
  require(netlist.finalized(), "SeqSim", "netlist must be finalized");
  values_.assign(netlist.size(), 0);
  prev_values_.assign(netlist.size(), 0);
  state_.assign(netlist.num_flops(), 0);
  flop_d_.reserve(netlist.num_flops());
  for (const NodeId flop : netlist.flops()) {
    flop_d_.push_back(netlist.dff_input(flop));
  }

  // The gate program: the constants (level 0), then every gate sorted by
  // (level, op, inversion, fanin count), cut into runs of one key.
  using Key = std::tuple<unsigned, ReduceOp, std::uint8_t, std::uint32_t>;
  const auto key_of = [](unsigned level, GateType type, std::uint32_t count) {
    const Reduction kind = reduction_of(type);
    return Key(level, kind.op, kind.invert, count);
  };
  Key run_key;
  const auto add_gate = [&](const Key& key, NodeId node,
                            const NodeId* fanins) {
    const auto [level, op, invert, count] = key;
    if (runs_.empty() || key != run_key) {
      runs_.push_back(
          {kRunKernels[static_cast<std::size_t>(op)][std::min(count, kAnyCount)],
           static_cast<std::uint32_t>(run_outs_.size()),
           static_cast<std::uint32_t>(run_fanins_.size()), 0, count, invert});
      run_key = key;
    }
    ++runs_.back().size;
    run_outs_.push_back(node);
    run_fanins_.insert(run_fanins_.end(), fanins, fanins + count);
  };

  const std::span<const EvalEntry> entries = netlist.eval_entries();
  run_outs_.reserve(netlist.const0_nodes().size() +
                    netlist.const1_nodes().size() + entries.size());
  run_fanins_.reserve(entries.empty()
                          ? 0
                          : entries.back().first + entries.back().count);
  for (const NodeId id : netlist.const0_nodes()) {
    add_gate(key_of(0, GateType::kConst0, 0), id, nullptr);
  }
  for (const NodeId id : netlist.const1_nodes()) {
    add_gate(key_of(0, GateType::kConst1, 0), id, nullptr);
  }
  const auto entry_key = [&](std::uint32_t i) {
    return key_of(netlist.level(entries[i].node), entries[i].type,
                  entries[i].count);
  };
  std::vector<std::uint32_t> order(entries.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return entry_key(a) < entry_key(b);
                   });
  const NodeId* const ids = netlist.eval_fanin_ids();
  for (const std::uint32_t i : order) {
    add_gate(entry_key(i), entries[i].node, ids + entries[i].first);
  }
}

void SeqSim::load_state(std::span<const std::uint8_t> state) {
  require(state.size() == netlist_->num_flops(), "SeqSim::load_state",
          "state size must equal the flop count");
  // The gate program reads bytes as exactly 0 or 1 (its AND of 1 and 2 is
  // 0); normalize like step()'s inputs.
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
  const NodeId* const outs = run_outs_.data();
  const NodeId* const fanins = run_fanins_.data();
  for (const GateRun& run : runs_) {
    run.eval(values, outs + run.first_out, fanins + run.first_fanin, run.size,
             run.count, run.invert);
  }
#if FBT_OBS_ENABLED
  gates_evaluated_.add(netlist_->num_gates());
  cycles_stepped_.add(1);
#endif

  // Switching activity vs. the previous settled cycle.
  SeqStep result;
  if (have_prev_) {
    const std::uint8_t* const prev = prev_values_.data();
    const std::size_t num_nodes = values_.size();
    // Every byte is 0 or 1, so the XOR of eight of them holds one 0/1 byte
    // per line, and the multiply sums those bytes into the top byte.
    std::size_t toggled = 0;
    std::size_t id = 0;
    for (; id + 8 <= num_nodes; id += 8) {
      std::uint64_t now;
      std::uint64_t before;
      std::memcpy(&now, values + id, 8);
      std::memcpy(&before, prev + id, 8);
      toggled += ((now ^ before) * 0x0101010101010101ULL) >> 56;
    }
    for (; id < num_nodes; ++id) toggled += values[id] != prev[id];
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
