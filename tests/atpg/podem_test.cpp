#include "atpg/podem.hpp"

#include <gtest/gtest.h>

#include "circuits/s27.hpp"
#include "circuits/synth.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/bench_io.hpp"
#include "test_circuits.hpp"

namespace fbt {
namespace {

PodemConfig fast_config() {
  return PodemConfig{.backtrack_limit = 5000, .rng_seed = 1};
}

TEST(Podem, GeneratesVerifiedTestsForFig1) {
  const Netlist nl = testing::make_fig1_circuit();
  PodemEngine engine(nl, fast_config());
  BroadsideFaultSim fsim(nl);
  for (const NodeId line : {nl.find("a"), nl.find("c"), nl.find("e")}) {
    for (const bool rising : {true, false}) {
      const TransitionFault tf{line, rising};
      const PodemOutcome out = engine.generate(tf);
      ASSERT_EQ(out.status, PodemStatus::kDetected) << fault_name(nl, tf);
      const BroadsideTest test = engine.extract_test();
      EXPECT_TRUE(fsim.detects(test, tf)) << fault_name(nl, tf);
    }
  }
}

// Property sweep: every fault PODEM claims detected is confirmed by the
// independent fault simulator, on s27 (sequential, with broadside linkage).
TEST(Podem, S27TestsAreVerifiedByFaultSimulation) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::uncollapsed(nl);
  PodemEngine engine(nl, fast_config());
  BroadsideFaultSim fsim(nl);
  std::size_t detected = 0;
  std::size_t undetectable = 0;
  for (const TransitionFault& tf : faults.faults()) {
    const PodemOutcome out = engine.generate(tf);
    if (out.status == PodemStatus::kDetected) {
      ++detected;
      EXPECT_TRUE(fsim.detects(engine.extract_test(), tf))
          << fault_name(nl, tf);
    } else if (out.status == PodemStatus::kUndetectable) {
      ++undetectable;
    }
  }
  // s27 is small; everything should resolve without aborting, and most
  // transition faults are detectable by broadside tests.
  EXPECT_EQ(detected + undetectable, faults.size());
  EXPECT_GT(detected, faults.size() / 2);
}

// Undetectable proof cross-check: exhaustive enumeration over all broadside
// tests of a tiny circuit agrees with PODEM's undetectable verdicts.
TEST(Podem, UndetectableVerdictsMatchExhaustiveSearch) {
  const Netlist nl = testing::make_fig21_circuit();  // 2 PIs, 1 flop
  const TransitionFaultList faults = TransitionFaultList::uncollapsed(nl);
  PodemEngine engine(nl, fast_config());
  BroadsideFaultSim fsim(nl);
  for (const TransitionFault& tf : faults.faults()) {
    const PodemOutcome out = engine.generate(tf);
    ASSERT_NE(out.status, PodemStatus::kAborted) << fault_name(nl, tf);

    bool exhaustive_detectable = false;
    for (std::uint32_t bits = 0; bits < (1u << 5); ++bits) {
      BroadsideTest t;
      t.scan_state = {static_cast<std::uint8_t>(bits & 1)};
      t.v1 = {static_cast<std::uint8_t>((bits >> 1) & 1),
              static_cast<std::uint8_t>((bits >> 2) & 1)};
      t.v2 = {static_cast<std::uint8_t>((bits >> 3) & 1),
              static_cast<std::uint8_t>((bits >> 4) & 1)};
      if (fsim.detects(t, tf)) {
        exhaustive_detectable = true;
        break;
      }
    }
    EXPECT_EQ(out.status == PodemStatus::kDetected, exhaustive_detectable)
        << fault_name(nl, tf);
  }
}

TEST(Podem, MultiGoalSolveDetectsAllGoals) {
  const Netlist nl = testing::make_fig2_circuit();
  PodemEngine engine(nl, fast_config());
  BroadsideFaultSim fsim(nl);
  const std::vector<TransitionFault> goals = {{nl.find("a"), true},
                                              {nl.find("c"), true},
                                              {nl.find("e"), true},
                                              {nl.find("g"), true}};
  engine.reset();
  const PodemOutcome out = engine.solve(goals, true);
  ASSERT_EQ(out.status, PodemStatus::kDetected);
  const BroadsideTest test = engine.extract_test();
  for (const TransitionFault& tf : goals) {
    EXPECT_TRUE(fsim.detects(test, tf)) << fault_name(nl, tf);
  }
}

TEST(Podem, MultiGoalProvesJointUndetectability) {
  // Fig. 2.1: the TPDF along c-d-e requires c@2 = 1 and (via linkage from
  // e@1 = 0) c@2 = 0 -- individually detectable faults, jointly impossible.
  const Netlist nl = testing::make_fig21_circuit();
  PodemEngine engine(nl, fast_config());
  const std::vector<TransitionFault> goals = {{nl.find("c"), true},
                                              {nl.find("d"), false},
                                              {nl.find("e"), true}};
  engine.reset();
  const PodemOutcome out = engine.solve(goals, true);
  EXPECT_EQ(out.status, PodemStatus::kUndetectable);
}

TEST(Podem, PreassignmentsRestrictTheSearch) {
  const Netlist nl = testing::make_fig1_circuit();
  PodemEngine engine(nl, fast_config());
  engine.reset();
  // Force d = 0 in frame 2: e = AND(c, d) can never show the fault effect.
  const Assignment block{{Frame::k2, nl.find("d")}, false};
  ASSERT_TRUE(engine.preassign(std::span(&block, 1)));
  const PodemOutcome out =
      engine.target({nl.find("c"), true}, /*backtrack_into_earlier=*/true);
  EXPECT_EQ(out.status, PodemStatus::kUndetectable);
}

TEST(Podem, HeuristicModeDoesNotDisturbEarlierGoals) {
  const Netlist nl = testing::make_fig2_circuit();
  PodemEngine engine(nl, fast_config());
  BroadsideFaultSim fsim(nl);
  engine.reset();
  const TransitionFault first{nl.find("g"), true};
  ASSERT_EQ(engine.target(first, true).status, PodemStatus::kDetected);
  const std::size_t depth = engine.decision_depth();
  const TransitionFault second{nl.find("c"), true};
  const PodemOutcome out = engine.target(second, false);
  if (out.status == PodemStatus::kDetected) {
    const BroadsideTest test = engine.extract_test();
    EXPECT_TRUE(fsim.detects(test, first));
    EXPECT_TRUE(fsim.detects(test, second));
  } else {
    // On failure the engine must unwind its own decisions only.
    EXPECT_EQ(engine.decision_depth(), depth);
  }
}

TEST(Podem, RandomCircuitSweepIsSound) {
  SynthParams p;
  p.name = "podem_sweep";
  p.num_inputs = 6;
  p.num_outputs = 4;
  p.num_flops = 5;
  p.num_gates = 70;
  p.seed = 13;
  const Netlist nl = generate_synthetic(p);
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  PodemEngine engine(nl, fast_config());
  BroadsideFaultSim fsim(nl);
  for (std::size_t i = 0; i < faults.size(); i += 2) {
    const TransitionFault& tf = faults.fault(i);
    const PodemOutcome out = engine.generate(tf);
    if (out.status == PodemStatus::kDetected) {
      EXPECT_TRUE(fsim.detects(engine.extract_test(), tf))
          << fault_name(nl, tf);
    }
  }
}

// No clock decides a search: the no-op time limit, even at zero, leaves
// every outcome and test unchanged.
TEST(Podem, OutcomeDoesNotDependOnTimeLimit) {
  const Netlist nl = make_s27();
  PodemConfig no_time = fast_config();
  no_time.time_limit_seconds = 0.0;
  PodemEngine reference(nl, fast_config());
  PodemEngine engine(nl, no_time);
  const TransitionFaultList faults = TransitionFaultList::uncollapsed(nl);
  for (const TransitionFault& tf : faults.faults()) {
    const PodemOutcome want = reference.generate(tf);
    const PodemOutcome got = engine.generate(tf);
    ASSERT_EQ(got.status, want.status) << fault_name(nl, tf);
    EXPECT_EQ(got.backtracks, want.backtracks) << fault_name(nl, tf);
    EXPECT_EQ(got.decisions, want.decisions) << fault_name(nl, tf);
    if (want.status == PodemStatus::kDetected) {
      const BroadsideTest got_test = engine.extract_test();
      const BroadsideTest want_test = reference.extract_test();
      EXPECT_EQ(got_test.scan_state, want_test.scan_state);
      EXPECT_EQ(got_test.v1, want_test.v1);
      EXPECT_EQ(got_test.v2, want_test.v2);
    }
  }
}

// A cap of d decisions leaves a solve that needs d unchanged, and aborts one
// that needs d + 1 just before its last decision, unwinding what it decided.
TEST(Podem, AbortsAtDecisionLimit) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::uncollapsed(nl);
  for (const TransitionFault& tf : faults.faults()) {
    const PodemOutcome full = PodemEngine(nl, fast_config()).generate(tf);
    ASSERT_GT(full.decisions, 0u) << fault_name(nl, tf);

    PodemConfig cfg = fast_config();
    cfg.decision_limit = full.decisions;
    const PodemOutcome enough = PodemEngine(nl, cfg).generate(tf);
    EXPECT_EQ(enough.status, full.status) << fault_name(nl, tf);
    EXPECT_EQ(enough.backtracks, full.backtracks) << fault_name(nl, tf);

    cfg.decision_limit = full.decisions - 1;
    PodemEngine capped(nl, cfg);
    const PodemOutcome out = capped.generate(tf);
    EXPECT_EQ(out.status, PodemStatus::kAborted) << fault_name(nl, tf);
    EXPECT_EQ(out.decisions, cfg.decision_limit) << fault_name(nl, tf);
    EXPECT_EQ(capped.decision_depth(), 0u) << fault_name(nl, tf);
  }
}

}  // namespace
}  // namespace fbt
