#include "sim/seqsim.hpp"

#include <gtest/gtest.h>

#include <string>

#include "circuits/registry.hpp"
#include "circuits/s27.hpp"
#include "sim/value.hpp"
#include "test_circuits.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace fbt {
namespace {

// Oracle for SeqSim's gate program: the same cycle built on
// settle<std::uint8_t>, which walks the netlist's eval order.
class SettleSeqSim {
 public:
  explicit SettleSeqSim(const Netlist& nl)
      : nl_(nl), values_(nl.size(), 0), prev_(nl.size(), 0),
        state_(nl.num_flops(), 0) {}

  std::size_t step(const std::vector<std::uint8_t>& pi,
                   const std::vector<std::uint8_t>& held) {
    values_.swap(prev_);
    for (std::size_t i = 0; i < pi.size(); ++i) values_[nl_.inputs()[i]] = pi[i];
    for (std::size_t i = 0; i < state_.size(); ++i) {
      values_[nl_.flops()[i]] = state_[i];
    }
    settle(nl_, values_.data());
    std::size_t toggled = 0;
    if (have_prev_) {
      for (std::size_t id = 0; id < values_.size(); ++id) {
        toggled += values_[id] != prev_[id];
      }
    }
    have_prev_ = true;
    for (std::size_t i = 0; i < state_.size(); ++i) {
      if (held.empty() || !held[i]) {
        state_[i] = values_[nl_.dff_input(nl_.flops()[i])];
      }
    }
    return toggled;
  }

  const std::vector<std::uint8_t>& values() const { return values_; }
  const std::vector<std::uint8_t>& state() const { return state_; }

 private:
  const Netlist& nl_;
  std::vector<std::uint8_t> values_;
  std::vector<std::uint8_t> prev_;
  std::vector<std::uint8_t> state_;
  bool have_prev_ = false;
};

// Steps SeqSim and the oracle in lockstep over random inputs and random
// held flops, and checks every node, the toggles and the state each cycle.
// Halfway through, SeqSim runs ahead and is restored from a snapshot.
void expect_matches_settle(const Netlist& nl, std::uint64_t seed,
                           int cycles) {
  SeqSim sim(nl);
  SettleSeqSim oracle(nl);
  sim.load_reset_state();
  Pcg32 rng(seed);
  std::vector<std::uint8_t> pi(nl.num_inputs());
  std::vector<std::uint8_t> held(nl.num_flops());
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (std::uint8_t& v : pi) v = rng.chance(1, 2);
    for (std::uint8_t& h : held) h = rng.chance(1, 4);
    const bool hold = cycle % 3 == 2;
    const std::vector<std::uint8_t> no_hold;
    if (cycle == cycles / 2) {
      const SeqSim::Snapshot snap = sim.snapshot();
      std::vector<std::uint8_t> other(pi.size());
      for (std::uint8_t& v : other) v = rng.chance(1, 2);
      sim.step(other);
      sim.restore(snap);
    }
    const SeqStep step = sim.step(pi, hold ? held : no_hold);
    const std::size_t toggled = oracle.step(pi, hold ? held : no_hold);
    ASSERT_EQ(step.toggled_lines, toggled) << nl.name() << " cycle " << cycle;
    for (NodeId id = 0; id < nl.size(); ++id) {
      ASSERT_EQ(sim.value(id), oracle.values()[id])
          << nl.name() << " node " << nl.node_name(id) << " cycle " << cycle;
    }
    ASSERT_EQ(sim.state(), oracle.state()) << nl.name() << " cycle " << cycle;
  }
}

TEST(SeqSim, GateProgramMatchesSettleOnEveryRegistryCircuit) {
  for (const BenchmarkSpec& spec : benchmark_registry()) {
    const Netlist nl = load_benchmark(spec.name);
    expect_matches_settle(nl, spec.seed, 24);
  }
}

// Random sequential netlists with every gate type at fanin counts 1-6, the
// constants (count 0), and repeated fanins, over several levels.
TEST(SeqSim, GateProgramMatchesSettleOnRandomNetlists) {
  constexpr GateType kTypes[] = {GateType::kBuf, GateType::kNot,
                                 GateType::kAnd, GateType::kNand,
                                 GateType::kOr,  GateType::kNor,
                                 GateType::kXor, GateType::kXnor};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Pcg32 rng(seed);
    Netlist nl("random_seq" + std::to_string(seed));
    std::vector<NodeId> pool;
    for (int i = 0; i < 6; ++i) {
      pool.push_back(nl.add_input("i" + std::to_string(i)));
    }
    std::vector<NodeId> flops;
    for (int f = 0; f < 8; ++f) {
      flops.push_back(nl.add_dff("q" + std::to_string(f)));
      pool.push_back(flops.back());
    }
    pool.push_back(nl.add_gate(GateType::kConst0, "c0", {}));
    pool.push_back(nl.add_gate(GateType::kConst1, "c1", {}));
    std::size_t by_count[7] = {};
    for (int g = 0; g < 300; ++g) {
      const GateType type =
          kTypes[rng.below(static_cast<std::uint32_t>(std::size(kTypes)))];
      const std::size_t n =
          (type == GateType::kBuf || type == GateType::kNot) ? 1
                                                             : rng.range(1, 6);
      std::vector<NodeId> fanins;
      for (std::size_t k = 0; k < n; ++k) {
        fanins.push_back(
            pool[rng.below(static_cast<std::uint32_t>(pool.size()))]);
      }
      pool.push_back(nl.add_gate(type, "g" + std::to_string(g), fanins));
      ++by_count[n];
    }
    for (std::size_t n = 1; n <= 6; ++n) ASSERT_GT(by_count[n], 0u) << n;
    for (const NodeId ff : flops) {
      nl.set_dff_input(ff, pool[pool.size() - 1 - rng.below(100)]);
    }
    nl.mark_output(pool.back());
    nl.finalize();
    ASSERT_GT(nl.max_level(), 3u);
    expect_matches_settle(nl, seed, 64);
  }
}

TEST(SeqSim, ToggleCircuitCountsCorrectly) {
  const Netlist nl = testing::make_toggle_circuit();
  SeqSim sim(nl);
  sim.load_reset_state();
  std::vector<std::uint8_t> one{1};
  std::vector<std::uint8_t> zero{0};
  // nxt = in XOR ff; with in=1 the flop toggles every cycle.
  sim.step(one);
  EXPECT_EQ(sim.state()[0], 1);
  sim.step(one);
  EXPECT_EQ(sim.state()[0], 0);
  sim.step(zero);
  EXPECT_EQ(sim.state()[0], 0);  // in=0, ff=0 -> nxt=0
}

TEST(SeqSim, FirstCycleHasUndefinedSwa) {
  const Netlist nl = testing::make_toggle_circuit();
  SeqSim sim(nl);
  sim.load_reset_state();
  const SeqStep first = sim.step(std::vector<std::uint8_t>{1});
  EXPECT_EQ(first.toggled_lines, 0u);  // SWA(0) undefined -> reported as 0
  const SeqStep second = sim.step(std::vector<std::uint8_t>{1});
  EXPECT_GT(second.toggled_lines, 0u);
}

TEST(SeqSim, SwitchingActivityCountsToggledLines) {
  const Netlist nl = testing::make_toggle_circuit();
  SeqSim sim(nl);
  sim.load_reset_state();
  sim.step(std::vector<std::uint8_t>{0});  // settle: in=0 ff=0 nxt=0 out=1
  const SeqStep step = sim.step(std::vector<std::uint8_t>{1});
  // in: 0->1, ff stays 0, nxt: 0->1, out stays 1  => 2 toggles of 4 lines.
  EXPECT_EQ(step.toggled_lines, 2u);
  EXPECT_DOUBLE_EQ(step.switching_percent, 50.0);
}

TEST(SeqSim, HoldKeepsStateVariable) {
  const Netlist nl = testing::make_toggle_circuit();
  SeqSim sim(nl);
  sim.load_reset_state();
  std::vector<std::uint8_t> one{1};
  std::vector<std::uint8_t> hold{1};
  sim.step(one, hold);
  EXPECT_EQ(sim.state()[0], 0);  // held at reset value despite nxt=1
  sim.step(one);
  EXPECT_EQ(sim.state()[0], 1);  // released
}

TEST(SeqSim, SnapshotRestoreRoundTrips) {
  const Netlist nl = make_s27();
  SeqSim sim(nl);
  sim.load_reset_state();
  std::vector<std::uint8_t> v(nl.num_inputs(), 1);
  sim.step(v);
  sim.step(v);
  const SeqSim::Snapshot snap = sim.snapshot();
  const auto state_before = sim.state();
  const auto cycle_before = sim.cycle();

  std::vector<std::uint8_t> w(nl.num_inputs(), 0);
  sim.step(w);
  sim.step(w);
  sim.restore(snap);
  EXPECT_EQ(sim.state(), state_before);
  EXPECT_EQ(sim.cycle(), cycle_before);

  // Re-stepping after restore reproduces the same trajectory.
  const SeqStep a = sim.step(w);
  sim.restore(snap);
  const SeqStep b = sim.step(w);
  EXPECT_EQ(a.toggled_lines, b.toggled_lines);
}

// The gate program reduces bytes with &, | and ^, which are exact only on 0
// and 1, so load_state must read any nonzero byte as 1, as step() does for
// primary inputs.
TEST(SeqSim, LoadStateNormalizesNonzeroBytes) {
  const Netlist nl = make_s27();
  ASSERT_EQ(nl.num_flops(), 3u);
  SeqSim raw(nl);
  SeqSim norm(nl);
  raw.load_state(std::vector<std::uint8_t>{2, 0, 0xFF});
  norm.load_state(std::vector<std::uint8_t>{1, 0, 1});
  EXPECT_EQ(raw.state(), norm.state());
  Pcg32 rng(27);
  for (int cycle = 0; cycle < 32; ++cycle) {
    std::vector<std::uint8_t> pi(nl.num_inputs());
    for (std::uint8_t& v : pi) v = static_cast<std::uint8_t>(rng.below(2));
    const SeqStep a = raw.step(pi);
    const SeqStep b = norm.step(pi);
    EXPECT_EQ(a.toggled_lines, b.toggled_lines) << "cycle " << cycle;
    EXPECT_DOUBLE_EQ(a.switching_percent, b.switching_percent);
    EXPECT_EQ(raw.values(), norm.values()) << "cycle " << cycle;
    EXPECT_EQ(raw.state(), norm.state()) << "cycle " << cycle;
  }
}

TEST(SeqSim, RejectsWrongSizes) {
  const Netlist nl = make_s27();
  SeqSim sim(nl);
  EXPECT_THROW(sim.step(std::vector<std::uint8_t>{1}), Error);
  EXPECT_THROW(sim.load_state(std::vector<std::uint8_t>{1}), Error);
}

}  // namespace
}  // namespace fbt
