#include "multiclock/multiclock_sim.hpp"

#include "sim/value.hpp"
#include "util/require.hpp"

namespace fbt {

MultiClockSim::MultiClockSim(const ClockDomains& domains)
    : domains_(&domains), sim_(domains.netlist()) {
  hold_slow_.assign(domains.netlist().num_flops(), 0);
  for (std::size_t i = 0; i < hold_slow_.size(); ++i) {
    hold_slow_[i] = domains.is_slow(i) ? 1 : 0;
  }
}

void MultiClockSim::load_reset_state() {
  sim_.load_reset_state();
  cycle_ = 0;
}

SeqStep MultiClockSim::step(std::span<const std::uint8_t> pi_values) {
  // The slow domain holds on every cycle whose edge is not its own.
  const bool slow_edge = domains_->slow_capture_at(cycle_);
  const SeqStep step =
      sim_.step(pi_values, slow_edge ? std::span<const std::uint8_t>{}
                                     : std::span<const std::uint8_t>(
                                           hold_slow_));
  ++cycle_;
  return step;
}

namespace {

/// Two-machine window simulation: fault-free and faulty, with per-domain
/// state updates. The gross delay is scaled to the fault site's own clock
/// domain ("at speed" per domain, §5.1): one fast cycle for fast/crossing
/// sites, one slow period (= divider fast cycles) for intra-slow sites. The
/// delayed output has the closed form
///   rising-slow:  o(t) = AND(good(t-delay) .. good(t))
///   falling-slow: o(t) = OR(good(t-delay) .. good(t))
/// (an edge of the faulty direction only completes after `delay` quiet
/// cycles; the opposite direction passes immediately). Returns true on any
/// observable mismatch.
bool window_detects(const ClockDomains& domains, const MultiCycleTest& test,
                    const TransitionFault& fault) {
  const Netlist& nl = domains.netlist();
  require(test.start_state.size() == nl.num_flops(), "MultiClockFaultSim",
          "start state size mismatch");

  const std::size_t delay =
      domains.classify(fault.line) == ClockDomains::FaultSpan::kIntraSlow
          ? domains.divider()
          : 1;

  std::vector<std::uint8_t> good_state = test.start_state;
  std::vector<std::uint8_t> bad_state = test.start_state;
  std::vector<std::uint8_t> good_vals(nl.size(), 0);
  std::vector<std::uint8_t> bad_vals(nl.size(), 0);
  std::vector<std::uint8_t> site_history;  // good site values, oldest first
  site_history.reserve(delay);

  auto settle_machine = [&](std::vector<std::uint8_t>& vals,
                            const std::vector<std::uint8_t>& state,
                            const std::vector<std::uint8_t>& pi, bool faulty) {
    for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
      vals[nl.inputs()[i]] = pi[i];
    }
    for (std::size_t i = 0; i < nl.num_flops(); ++i) {
      vals[nl.flops()[i]] = state[i];
    }
    auto force = [&](NodeId id) {
      if (!faulty || id != fault.line) return;
      // Fold the fault-free history (missing history = current value, so a
      // short window is conservative toward fault-free behaviour).
      std::uint8_t folded = vals[id];
      for (const std::uint8_t h : site_history) {
        if (fault.rising) {
          folded &= h;
        } else {
          folded |= h;
        }
      }
      vals[id] = folded;
    };
    if (!is_combinational(nl.gate(fault.line).type)) force(fault.line);
    settle(nl, vals.data(), force);
  };

  for (std::size_t c = 0; c < test.vectors.size(); ++c) {
    settle_machine(good_vals, good_state, test.vectors[c], /*faulty=*/false);
    settle_machine(bad_vals, bad_state, test.vectors[c], /*faulty=*/true);

    // Primary outputs are observed every fast cycle.
    for (const NodeId po : nl.outputs()) {
      if (good_vals[po] != bad_vals[po]) return true;
    }

    // Domain captures.
    const bool slow_edge = domains.slow_capture_at(c);
    for (std::size_t i = 0; i < nl.num_flops(); ++i) {
      if (domains.is_slow(i) && !slow_edge) continue;
      const NodeId d = nl.dff_input(nl.flops()[i]);
      good_state[i] = good_vals[d];
      bad_state[i] = bad_vals[d];
    }
    for (std::size_t i = 0; i < nl.num_flops(); ++i) {
      if (good_state[i] != bad_state[i]) return true;
    }

    site_history.push_back(good_vals[fault.line]);
    if (site_history.size() > delay) {
      site_history.erase(site_history.begin());
    }
  }
  return false;
}

}  // namespace

MultiClockFaultSim::MultiClockFaultSim(const ClockDomains& domains)
    : domains_(&domains) {}

bool MultiClockFaultSim::detects(const MultiCycleTest& test,
                                 const TransitionFault& fault) {
  return window_detects(*domains_, test, fault);
}

std::size_t MultiClockFaultSim::grade(const std::vector<MultiCycleTest>& tests,
                                      const TransitionFaultList& faults,
                                      std::vector<std::uint32_t>& detect_count) {
  require(detect_count.size() == faults.size(), "MultiClockFaultSim::grade",
          "detect_count size mismatch");
  std::size_t newly = 0;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    if (detect_count[f] >= 1) continue;
    for (const MultiCycleTest& test : tests) {
      if (window_detects(*domains_, test, faults.fault(f))) {
        detect_count[f] = 1;
        ++newly;
        break;
      }
    }
  }
  return newly;
}

std::vector<MultiCycleTest> extract_multicycle_tests(
    const ClockDomains& domains, const std::vector<std::uint8_t>& start_state,
    const std::vector<std::vector<std::uint8_t>>& vectors,
    std::size_t window) {
  require(window >= 2, "extract_multicycle_tests", "window must be >= 2");
  MultiClockSim sim(domains);
  sim.load_reset_state();
  // Track the state at every cycle so windows can start anywhere aligned.
  std::vector<std::vector<std::uint8_t>> states;
  states.push_back(start_state);
  {
    // Re-simulate from the given start state.
    SeqSim base(domains.netlist());
    base.load_state(start_state);
    std::vector<std::uint8_t> hold(domains.netlist().num_flops(), 0);
    for (std::size_t i = 0; i < hold.size(); ++i) {
      hold[i] = domains.is_slow(i) ? 1 : 0;
    }
    for (std::size_t c = 0; c < vectors.size(); ++c) {
      const bool slow_edge = domains.slow_capture_at(c);
      base.step(vectors[c], slow_edge ? std::span<const std::uint8_t>{}
                                      : std::span<const std::uint8_t>(hold));
      states.push_back(base.state());
    }
  }
  std::vector<MultiCycleTest> tests;
  const std::size_t stride = domains.divider();
  for (std::size_t start = 0; start + window <= vectors.size();
       start += stride) {
    MultiCycleTest t;
    t.start_state = states[start];
    t.vectors.assign(vectors.begin() + start,
                     vectors.begin() + start + window);
    tests.push_back(std::move(t));
  }
  return tests;
}

}  // namespace fbt
