#include "bist/session.hpp"

#include <algorithm>

#include "bist/tpg.hpp"
#include "sim/value.hpp"
#include "util/require.hpp"

namespace fbt {
namespace {

/// Scalar settle with an optional gross-delay transition fault on one line:
/// an edge of the faulty direction arrives one clock late, so in the cycle
/// where the fault-free value first flips, the line still shows its previous
/// value.
class FaultySettler {
 public:
  FaultySettler(const Netlist& netlist, NodeId faulty_line, bool rising)
      : netlist_(&netlist),
        faulty_line_(faulty_line),
        rising_(rising),
        values_(netlist.size(), 0) {}

  void settle(std::span<const std::uint8_t> pi,
              std::span<const std::uint8_t> state) {
    for (std::size_t i = 0; i < pi.size(); ++i) {
      values_[netlist_->inputs()[i]] = pi[i];
    }
    for (std::size_t i = 0; i < state.size(); ++i) {
      values_[netlist_->flops()[i]] = state[i];
    }
    maybe_force(faulty_line_, /*is_source=*/true);
    fbt::settle(*netlist_, values_.data(),
                [&](NodeId id) { maybe_force(id, /*is_source=*/false); });
  }

  std::uint8_t value(NodeId id) const { return values_[id]; }

  std::vector<std::uint8_t> next_state() const {
    std::vector<std::uint8_t> s(netlist_->num_flops());
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i] = values_[netlist_->dff_input(netlist_->flops()[i])];
    }
    return s;
  }

 private:
  void maybe_force(NodeId id, bool is_source) {
    if (id != faulty_line_ || faulty_line_ == kNoNode) return;
    if (is_source &&
        is_combinational(netlist_->gate(faulty_line_).type)) {
      return;  // combinational faulty line is forced during eval instead
    }
    if (!is_source &&
        !is_combinational(netlist_->gate(faulty_line_).type)) {
      return;
    }
    const std::uint8_t fault_free = values_[id];
    if (have_prev_ && fault_free != prev_fault_free_) {
      const bool is_rising_edge = fault_free == 1;
      if (is_rising_edge == rising_) values_[id] = prev_fault_free_;
    }
    prev_fault_free_ = fault_free;
    have_prev_ = true;
  }

  const Netlist* netlist_;
  NodeId faulty_line_;
  bool rising_;
  std::vector<std::uint8_t> values_;
  std::uint8_t prev_fault_free_ = 0;
  bool have_prev_ = false;
};

}  // namespace

SessionReport run_bist_session(const Netlist& netlist,
                               const FunctionalBistResult& plan,
                               const ScanChains& scan,
                               const SessionConfig& config,
                               NodeId faulty_line, bool faulty_rising,
                               SessionObserver* observer) {
  require(config.q >= 1, "run_bist_session", "q must be >= 1");
  const bool may_hold = !config.hold_sets.empty();
  if (may_hold) {
    require(config.hold_period_log2 >= 1, "run_bist_session",
            "hold_period_log2 (h) must be >= 1 when hold sets are given");
    for (const auto& set : config.hold_sets) {
      for (const std::size_t f : set) {
        require(f < netlist.num_flops(), "run_bist_session",
                "hold set flop index out of range");
      }
    }
    for (const std::size_t s : config.hold_set_of_sequence) {
      require(s == kNoHoldSet || s < config.hold_sets.size(),
              "run_bist_session", "hold set index out of range");
    }
  }
  const std::size_t hold_period =
      may_hold ? (std::size_t{1} << config.hold_period_log2) : 0;

  SessionReport report;
  Tpg tpg(netlist, config.tpg);
  Misr misr(config.misr_stages);
  misr.reset();
  FaultySettler settler(netlist, faulty_line, faulty_rising);

  // Drive everything with the controller FSM (Fig. 4.2). Its plan mirrors
  // the generation result's sequence/segment structure.
  BistControllerPlan plan_fsm;
  plan_fsm.shift_register_size = tpg.shift_register_size();
  plan_fsm.scan_length = scan.longest_length();
  plan_fsm.q = config.q;
  for (const SequenceRecord& seq : plan.sequences) {
    std::vector<std::size_t> lens;
    for (const SegmentRecord& seg : seq.segments) lens.push_back(seg.length);
    plan_fsm.sequences.push_back(std::move(lens));
  }
  BistController ctrl(std::move(plan_fsm));

  std::vector<std::uint8_t> state(netlist.num_flops(), 0);
  std::vector<std::uint8_t> po(netlist.num_outputs());
  std::vector<std::uint8_t> shift_bits(
      std::max<std::size_t>(1, scan.num_chains()));
  std::vector<std::uint8_t> shift_snapshot;  // state at capture
  std::size_t shift_cycle = 0;               // within the current burst
  bool tpg_pending_reseed = true;
  std::vector<std::uint8_t> pi;  // last applied TPG vector

  while (!ctrl.done()) {
    const std::size_t seq_index = ctrl.sequence_index();
    const std::size_t seg_index = ctrl.segment_index();
    const std::size_t apply_index = ctrl.apply_cycle();
    const bool capture = ctrl.at_capture();
    const BistMode executed = ctrl.tick();
    ++report.total_cycles;
    bool applied = false;

    switch (executed) {
      case BistMode::kCircuitInit:
        // Shifting in the reachable all-0 initial state; the state is
        // complete when the phase ends.
        std::fill(state.begin(), state.end(), 0);
        break;
      case BistMode::kSeedLoad:
        tpg_pending_reseed = true;
        break;
      case BistMode::kShiftRegInit:
        // The SR fill is emulated inside Tpg::reseed; apply it once when
        // the phase completes (the controller accounts its cycles).
        break;
      case BistMode::kApply: {
        if (tpg_pending_reseed) {
          tpg.reseed(plan.sequences[seq_index].segments[seg_index].seed);
          tpg_pending_reseed = false;
        }
        pi = tpg.next_vector();
        settler.settle(pi, state);
        ++report.functional_cycles;
        applied = true;
        if (capture) {
          for (std::size_t k = 0; k < po.size(); ++k) {
            po[k] = settler.value(netlist.outputs()[k]);
          }
          misr.absorb(po);
          ++report.tests_applied;
        }
        std::vector<std::uint8_t> next = settler.next_state();
        // State holding (§4.5): the active set's variables keep their values
        // on the transition out of apply cycles divisible by 2^h.
        if (may_hold && apply_index % hold_period == 0 &&
            seq_index < config.hold_set_of_sequence.size() &&
            config.hold_set_of_sequence[seq_index] != kNoHoldSet) {
          const auto& held =
              config.hold_sets[config.hold_set_of_sequence[seq_index]];
          for (const std::size_t f : held) next[f] = state[f];
        }
        state = std::move(next);
        if (capture) {
          shift_snapshot = state;  // s(i+2), about to circulate
          shift_cycle = 0;
        }
        break;
      }
      case BistMode::kCircularShift: {
        // One rotation step: the MISR absorbs the scan-out bit of every
        // chain while the captured state circulates back into place.
        std::size_t base = 0;
        for (std::size_t ch = 0; ch < scan.num_chains(); ++ch) {
          const std::size_t len = scan.chain(ch).size();
          shift_bits[ch] =
              len == 0 ? 0
                       : shift_snapshot[base + (len - 1 + shift_cycle) % len];
          base += len;
        }
        misr.absorb(std::span(shift_bits.data(), scan.num_chains()));
        ++shift_cycle;
        ++report.shift_cycles;
        break;
      }
      default:
        break;
    }

    if (observer != nullptr) {
      SessionCycle cycle;
      cycle.index = report.total_cycles - 1;
      cycle.mode = executed;
      cycle.capture = capture;
      cycle.sequence = seq_index;
      cycle.segment = seg_index;
      cycle.apply_cycle = apply_index;
      if (applied) {
        cycle.pi = pi;
        cycle.state = state;
      }
      cycle.misr = misr.signature();
      observer->on_cycle(cycle);
    }
  }
  require(report.total_cycles == ctrl.total_cycles(), "run_bist_session",
          "internal: controller/session cycle accounting diverged");
  report.signature = misr.signature();
  return report;
}

}  // namespace fbt
