#include "fault/fault_sim.hpp"

#include <gtest/gtest.h>

#include "circuits/s27.hpp"
#include "circuits/synth.hpp"
#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
#include "sim/seqsim.hpp"
#include "sim/value.hpp"
#include "test_circuits.hpp"
#include "util/rng.hpp"

namespace fbt {
namespace {

BroadsideTest random_test(const Netlist& nl, Pcg32& rng) {
  BroadsideTest t;
  for (std::size_t i = 0; i < nl.num_flops(); ++i) {
    t.scan_state.push_back(rng.chance(1, 2));
  }
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
    t.v1.push_back(rng.chance(1, 2));
    t.v2.push_back(rng.chance(1, 2));
  }
  return t;
}

/// Reference detection: scalar two-frame simulation of good and faulty
/// circuits, fault = stuck-at-initial in frame 2, launch checked in frame 1.
bool reference_detects(const Netlist& nl, const BroadsideTest& t,
                       const TransitionFault& f) {
  SeqSim good(nl);
  good.load_state(t.scan_state);
  good.step(t.v1);
  const std::uint8_t launch = good.value(f.line);
  const std::uint8_t init = f.rising ? 0 : 1;
  if (launch != init) return false;
  std::vector<std::uint8_t> s2 = good.state();
  if (!t.state2_override.empty()) s2 = t.state2_override;

  // Frame 2 good values.
  SeqSim good2(nl);
  good2.load_state(s2);
  good2.step(t.v2);
  if (good2.value(f.line) == init) return false;  // no final value

  // Frame 2 faulty values: force the site and re-settle manually.
  std::vector<std::uint8_t> vals(nl.size());
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
    vals[nl.inputs()[i]] = t.v2[i];
  }
  for (std::size_t i = 0; i < nl.num_flops(); ++i) {
    vals[nl.flops()[i]] = s2[i];
  }
  for (NodeId id = 0; id < nl.size(); ++id) {
    if (nl.type(id) == GateType::kConst0) vals[id] = 0;
    if (nl.type(id) == GateType::kConst1) vals[id] = 1;
  }
  vals[f.line] = init;
  for (const NodeId id : nl.eval_order()) {
    if (id == f.line) {
      vals[id] = init;
      continue;
    }
    const auto fanins = nl.fanins(id);
    vals[id] = eval_gate<std::uint8_t>(
        nl.type(id), fanins.size(),
        [&](std::size_t k) { return vals[fanins[k]]; });
  }
  for (const NodeId po : nl.outputs()) {
    if (vals[po] != good2.value(po)) return true;
  }
  for (const NodeId ff : nl.flops()) {
    const NodeId d = nl.dff_input(ff);
    if (vals[d] != good2.value(d)) return true;
  }
  return false;
}

TEST(FaultSim, MatchesReferenceOnS27) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::uncollapsed(nl);
  BroadsideFaultSim sim(nl);
  Pcg32 rng(7);
  TestSet tests;
  for (int i = 0; i < 100; ++i) tests.push_back(random_test(nl, rng));

  const auto matrix = sim.detection_matrix(tests, faults);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    for (std::size_t t = 0; t < tests.size(); ++t) {
      const bool fast = (matrix[f][t / 64] >> (t % 64)) & 1u;
      const bool ref = reference_detects(nl, tests[t], faults.fault(f));
      ASSERT_EQ(fast, ref) << fault_name(nl, faults.fault(f)) << " test " << t;
    }
  }
}

TEST(FaultSim, MatchesReferenceOnSyntheticCircuit) {
  SynthParams p;
  p.name = "fsim_ref";
  p.num_inputs = 7;
  p.num_outputs = 4;
  p.num_flops = 6;
  p.num_gates = 90;
  p.seed = 31;
  const Netlist nl = generate_synthetic(p);
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  BroadsideFaultSim sim(nl);
  Pcg32 rng(17);
  TestSet tests;
  for (int i = 0; i < 70; ++i) tests.push_back(random_test(nl, rng));

  const auto matrix = sim.detection_matrix(tests, faults);
  for (std::size_t f = 0; f < faults.size(); f += 3) {  // sampled
    for (std::size_t t = 0; t < tests.size(); ++t) {
      const bool fast = (matrix[f][t / 64] >> (t % 64)) & 1u;
      const bool ref = reference_detects(nl, tests[t], faults.fault(f));
      ASSERT_EQ(fast, ref) << fault_name(nl, faults.fault(f)) << " test " << t;
    }
  }
}

// Both graders read the good machine from BitSim, so both must see CONST1.
TEST(FaultSim, BothEnginesMatchReferenceOnConstantTiedCircuit) {
  const Netlist nl = testing::make_const_circuit();
  const TransitionFaultList faults = TransitionFaultList::uncollapsed(nl);
  Pcg32 rng(5);
  TestSet tests;
  for (int i = 0; i < 40; ++i) tests.push_back(random_test(nl, rng));
  for (const auto engine : {BroadsideFaultSim::Engine::kSerial,
                            BroadsideFaultSim::Engine::kPacked}) {
    BroadsideFaultSim sim(nl, engine);
    const auto matrix = sim.detection_matrix(tests, faults);
    for (std::size_t f = 0; f < faults.size(); ++f) {
      for (std::size_t t = 0; t < tests.size(); ++t) {
        const bool fast = (matrix[f][t / 64] >> (t % 64)) & 1u;
        ASSERT_EQ(fast, reference_detects(nl, tests[t], faults.fault(f)))
            << fault_name(nl, faults.fault(f)) << " test " << t;
      }
    }
  }
}

TEST(FaultSim, GradeMatchesDetectionMatrix) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  BroadsideFaultSim sim(nl);
  Pcg32 rng(77);
  TestSet tests;
  for (int i = 0; i < 130; ++i) tests.push_back(random_test(nl, rng));

  const auto matrix = sim.detection_matrix(tests, faults);
  std::vector<std::uint32_t> counts(faults.size(), 0);
  const std::size_t newly = sim.grade(tests, faults, counts, 1);

  std::size_t expected = 0;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    bool hit = false;
    for (const std::uint64_t w : matrix[f]) hit |= (w != 0);
    if (hit) ++expected;
    EXPECT_EQ(counts[f] >= 1, hit) << fault_name(nl, faults.fault(f));
  }
  EXPECT_EQ(newly, expected);
}

TEST(FaultSim, GradeHonoursExistingCredit) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  BroadsideFaultSim sim(nl);
  Pcg32 rng(78);
  TestSet tests;
  for (int i = 0; i < 50; ++i) tests.push_back(random_test(nl, rng));

  std::vector<std::uint32_t> counts(faults.size(), 1);  // all already done
  EXPECT_EQ(sim.grade(tests, faults, counts, 1), 0u);
}

TEST(FaultSim, NDetectNeedsMultipleTests) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  BroadsideFaultSim sim(nl);
  Pcg32 rng(79);
  TestSet tests;
  for (int i = 0; i < 200; ++i) tests.push_back(random_test(nl, rng));

  std::vector<std::uint32_t> one(faults.size(), 0);
  std::vector<std::uint32_t> five(faults.size(), 0);
  const std::size_t done1 = sim.grade(tests, faults, one, 1);
  const std::size_t done5 = sim.grade(tests, faults, five, 5);
  EXPECT_GE(done1, done5);  // 5-detect is at least as hard
  for (std::size_t f = 0; f < faults.size(); ++f) {
    EXPECT_LE(one[f], 1u);
    EXPECT_LE(five[f], 5u);
    if (five[f] >= 1) {
      EXPECT_EQ(one[f], 1u);
    }
  }
}

TEST(FaultSim, State2OverrideChangesDetection) {
  const Netlist nl = make_s27();
  BroadsideFaultSim sim(nl);
  Pcg32 rng(80);
  // Find a case where overriding s2 flips some fault's detection.
  const TransitionFaultList faults = TransitionFaultList::uncollapsed(nl);
  bool found = false;
  for (int trial = 0; trial < 200 && !found; ++trial) {
    BroadsideTest natural = random_test(nl, rng);
    BroadsideTest overridden = natural;
    overridden.state2_override = second_state(nl, natural);
    // Flip one captured state bit: an unreachable-by-this-test s2.
    overridden.state2_override[trial % nl.num_flops()] ^= 1;
    for (std::size_t f = 0; f < faults.size(); ++f) {
      const bool a = sim.detects(natural, faults.fault(f));
      const bool b = sim.detects(overridden, faults.fault(f));
      if (a != b) {
        found = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found);
}

#if FBT_OBS_ENABLED
TEST(FaultSim, TestsGradedCountsOnlyLoadedTests) {
  // The grade walk exits as soon as the active fault list empties, so the
  // fault.tests_graded counter must advance by the tests actually loaded --
  // counting tests.size() would overstate grading throughput on every
  // early-exiting call.
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  Pcg32 rng(67);
  TestSet tests;
  for (int i = 0; i < 256; ++i) tests.push_back(random_test(nl, rng));
  obs::Counter& graded = obs::registry().counter("fault.tests_graded");

  // Every fault pre-saturated: the walk loads no block at all.
  BroadsideFaultSim sim(nl);
  std::vector<std::uint32_t> counts(faults.size(), 1);
  std::uint64_t before = graded.value();
  sim.grade(tests, faults, counts, 1);
  EXPECT_EQ(graded.value() - before, 0u);

  // Fresh grade at limit 1 on 256 random tests: s27's collapsed faults all
  // drop well before the last block, so the counter must advance by full
  // 64-test blocks but stay short of the whole set -- and by the identical
  // amount for the serial and the packed engine (same block walk).
  for (const bool packed : {false, true}) {
    BroadsideFaultSim engine(nl, packed ? BroadsideFaultSim::Engine::kPacked
                                        : BroadsideFaultSim::Engine::kSerial);
    std::fill(counts.begin(), counts.end(), 0);
    before = graded.value();
    engine.grade(tests, faults, counts, 1);
    const std::uint64_t loaded = graded.value() - before;
    EXPECT_GT(loaded, 0u) << "packed=" << packed;
    EXPECT_LT(loaded, tests.size()) << "packed=" << packed;
    EXPECT_EQ(loaded % 64, 0u) << "packed=" << packed;
  }
}
#endif

TEST(FaultSim, SecondStateMatchesSeqSim) {
  for (const Netlist& nl : {make_s27(), testing::make_const_circuit()}) {
    Pcg32 rng(81);
    for (int i = 0; i < 20; ++i) {
      const BroadsideTest t = random_test(nl, rng);
      const auto s2 = second_state(nl, t);
      SeqSim sim(nl);
      sim.load_state(t.scan_state);
      sim.step(t.v1);
      EXPECT_EQ(s2, sim.state()) << nl.name();
    }
  }
}

}  // namespace
}  // namespace fbt
