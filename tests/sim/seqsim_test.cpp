#include "sim/seqsim.hpp"

#include <gtest/gtest.h>

#include "circuits/s27.hpp"
#include "test_circuits.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace fbt {
namespace {

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

// settle() indexes truth tables by byte value, so load_state must read any
// nonzero byte as 1, as step() does for primary inputs.
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
