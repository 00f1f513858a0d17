#include "bist/functional_bist.hpp"

#include <gtest/gtest.h>

#include "circuits/registry.hpp"
#include "circuits/s27.hpp"
#include "fault/fault_sim.hpp"
#include "sim/seqsim.hpp"
#include "util/rng.hpp"

namespace fbt {
namespace {

FunctionalBistConfig small_config() {
  FunctionalBistConfig cfg;
  cfg.segment_length = 200;
  cfg.max_segment_failures = 2;
  cfg.max_sequence_failures = 2;
  cfg.bounded = false;
  cfg.rng_seed = 11;
  return cfg;
}

// The central property of the target paper: every generated test is a
// *functional broadside test* -- its scan-in state lies on a functional-mode
// trajectory from the reachable reset state, and its second state is the
// circuit's broadside response to the first pattern.
TEST(FunctionalBist, TestsAreFunctionalBroadsideTests) {
  const Netlist nl = make_s27();
  FunctionalBistGenerator gen(nl, small_config());
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);
  const FunctionalBistResult run = gen.run(faults, detect);
  ASSERT_GT(run.num_tests, 0u);

  // Replay each sequence functionally and confirm the tests are cut from the
  // trajectory.
  Tpg tpg(nl, small_config().tpg);
  std::size_t test_index = 0;
  for (const SequenceRecord& seq : run.sequences) {
    SeqSim sim(nl);
    sim.load_reset_state();
    for (const SegmentRecord& seg : seq.segments) {
      tpg.reseed(seg.seed);
      for (std::size_t c = 0; c < seg.length; ++c) {
        const auto pi = tpg.next_vector();
        if (c % 2 == 0) {
          ASSERT_LT(test_index, run.tests.size());
          const BroadsideTest& t = run.tests[test_index];
          EXPECT_EQ(t.scan_state, sim.state());
          EXPECT_EQ(t.v1, pi);
        } else {
          EXPECT_EQ(run.tests[test_index].v2, pi);
          ++test_index;
        }
        sim.step(pi);
      }
    }
  }
  EXPECT_EQ(test_index, run.num_tests);

  // And the broadside property: s2 is the response to <s1, v1> (no state
  // holding in this configuration).
  for (const BroadsideTest& t : run.tests) {
    EXPECT_TRUE(t.state2_override.empty());
  }
}

TEST(FunctionalBist, DetectsFaultsAndReportsCoverage) {
  const Netlist nl = make_s27();
  FunctionalBistGenerator gen(nl, small_config());
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);
  const FunctionalBistResult run = gen.run(faults, detect);

  std::size_t detected = 0;
  for (const std::uint32_t c : detect) detected += (c >= 1);
  EXPECT_EQ(detected, run.newly_detected);
  EXPECT_GT(detected, faults.size() / 4);

  // Re-grading the returned tests reproduces the same detection set.
  BroadsideFaultSim fsim(nl);
  std::vector<std::uint32_t> regraded(faults.size(), 0);
  fsim.grade(run.tests, faults, regraded, 1);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    EXPECT_EQ(regraded[f] >= 1, detect[f] >= 1) << fault_name(nl, faults.fault(f));
  }
}

TEST(FunctionalBist, EverySegmentEarnsItsKeep) {
  // Each committed segment must have detected at least one new fault at the
  // time it was committed, so #segments <= #detected faults.
  const Netlist nl = make_s27();
  FunctionalBistGenerator gen(nl, small_config());
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);
  const FunctionalBistResult run = gen.run(faults, detect);
  EXPECT_LE(run.num_seeds, run.newly_detected);
  EXPECT_EQ(run.num_tests, run.tests.size());
  std::size_t seg_count = 0;
  for (const auto& seq : run.sequences) seg_count += seq.segments.size();
  EXPECT_EQ(run.num_seeds, seg_count);
}

TEST(FunctionalBist, SwaBoundIsRespected) {
  const Netlist nl = load_benchmark("s386");
  FunctionalBistConfig cfg = small_config();
  cfg.bounded = true;
  cfg.segment_length = 300;
  // Measure the unbounded peak first, then constrain to 85% of it.
  {
    FunctionalBistConfig probe = cfg;
    probe.bounded = false;
    FunctionalBistGenerator gen(nl, probe);
    const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
    std::vector<std::uint32_t> detect(faults.size(), 0);
    const FunctionalBistResult unbounded = gen.run(faults, detect);
    ASSERT_GT(unbounded.peak_swa, 0.0);
    cfg.swa_bound_percent = 0.85 * unbounded.peak_swa;
  }
  FunctionalBistGenerator gen(nl, cfg);
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);
  const FunctionalBistResult bounded = gen.run(faults, detect);
  EXPECT_LE(bounded.peak_swa, cfg.swa_bound_percent + 1e-9);
  if (bounded.num_tests > 0) {
    EXPECT_GT(bounded.num_seeds, 0u);
  }
}

TEST(FunctionalBist, TighterBoundNeverHelpsCoverage) {
  const Netlist nl = load_benchmark("s386");
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);

  auto coverage_at = [&](double bound, bool bounded) {
    FunctionalBistConfig cfg = small_config();
    cfg.segment_length = 300;
    cfg.bounded = bounded;
    cfg.swa_bound_percent = bound;
    FunctionalBistGenerator gen(nl, cfg);
    std::vector<std::uint32_t> detect(faults.size(), 0);
    gen.run(faults, detect);
    std::size_t detected = 0;
    for (const std::uint32_t c : detect) detected += (c >= 1);
    return detected;
  };
  const std::size_t unbounded = coverage_at(100.0, false);
  const std::size_t tight = coverage_at(12.0, true);
  EXPECT_LE(tight, unbounded);
}

TEST(FunctionalBist, SegmentLengthsAreEvenAndBounded) {
  const Netlist nl = make_s27();
  FunctionalBistConfig cfg = small_config();
  FunctionalBistGenerator gen(nl, cfg);
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);
  const FunctionalBistResult run = gen.run(faults, detect);
  for (const auto& seq : run.sequences) {
    for (const auto& seg : seq.segments) {
      EXPECT_EQ(seg.length % 2, 0u);
      EXPECT_LE(seg.length, cfg.segment_length);
      EXPECT_EQ(seg.num_tests, seg.length / 2);
    }
  }
  EXPECT_LE(run.lmax, cfg.segment_length);
}

TEST(FunctionalBist, HoldingProducesOverriddenStates) {
  const Netlist nl = load_benchmark("s298");
  FunctionalBistConfig cfg = small_config();
  cfg.hold_period_log2 = 2;
  cfg.hold_set = {0, 1, 2, 3, 4};
  FunctionalBistGenerator gen(nl, cfg);
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);
  const FunctionalBistResult run = gen.run(faults, detect);
  std::size_t overridden = 0;
  for (const BroadsideTest& t : run.tests) {
    ASSERT_FALSE(t.state2_override.empty());
    const auto natural = second_state(nl, t);
    if (t.state2_override != natural) {
      ++overridden;
      // Only held flops may deviate from the broadside response.
      for (std::size_t i = 0; i < natural.size(); ++i) {
        if (t.state2_override[i] != natural[i]) {
          EXPECT_TRUE(std::find(cfg.hold_set.begin(), cfg.hold_set.end(), i) !=
                      cfg.hold_set.end());
        }
      }
    }
  }
  if (!run.tests.empty()) {
    EXPECT_GT(overridden, 0u);  // holding must actually bite somewhere
  }
}

/// Tight enough to force SWA violations and trimmed segments on s298, loose
/// enough that some segments survive.
FunctionalBistConfig trimming_config() {
  FunctionalBistConfig cfg;
  cfg.segment_length = 64;
  cfg.max_segment_failures = 2;
  cfg.max_sequence_failures = 2;
  cfg.bounded = true;
  cfg.swa_bound_percent = 30.0;
  cfg.rng_seed = 2026;
  return cfg;
}

TEST(FunctionalBist, BoundedTrimsLeaveAReplayableTrajectory) {
  // Replays every committed multi-segment sequence from reset using only the
  // recorded (seed, length) pairs and re-derives the tests. This pins the
  // invariant that after a violation-trimmed segment (an odd-cycle violation
  // rewinds to the last even boundary) the simulator sits at the end of the
  // usable prefix -- the trajectory the on-chip hardware would produce.
  const Netlist nl = load_benchmark("s298");
  const FunctionalBistConfig cfg = trimming_config();
  FunctionalBistGenerator gen(nl, cfg);
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);
  const FunctionalBistResult run = gen.run(faults, detect);
  ASSERT_FALSE(run.sequences.empty());

  std::size_t trimmed = 0;
  Tpg tpg(nl, cfg.tpg);
  SeqSim sim(nl);
  std::size_t next_test = 0;
  for (const SequenceRecord& seq : run.sequences) {
    sim.load_reset_state();
    for (const SegmentRecord& seg : seq.segments) {
      ASSERT_EQ(seg.length % 2, 0u);
      if (seg.length < cfg.segment_length) ++trimmed;
      tpg.reseed(seg.seed);
      for (std::size_t c = 0; c < seg.length; c += 2) {
        const std::vector<std::uint8_t> launch = sim.state();
        const std::vector<std::uint8_t> v1 = tpg.next_vector();
        sim.step(v1);
        const std::vector<std::uint8_t> v2 = tpg.next_vector();
        sim.step(v2);
        ASSERT_LT(next_test, run.tests.size());
        const BroadsideTest& t = run.tests[next_test++];
        EXPECT_EQ(t.scan_state, launch);
        EXPECT_EQ(t.v1, v1);
        EXPECT_EQ(t.v2, v2);
      }
    }
  }
  EXPECT_EQ(next_test, run.tests.size());
  // At least one segment was trimmed, so the replay actually crossed a
  // post-violation boundary.
  EXPECT_GT(trimmed, 0u);
}

TEST(FunctionalBist, HoldSetSeedsFollowTheGeneratorStream) {
  // Candidate seeds are drawn one at a time from the generator's PCG stream
  // (odd, so the LFSR never starts all-zero), with or without state holding:
  // the committed seeds must be an in-order subsequence of that stream. The
  // inert speculation_lanes field must not perturb it either.
  const Netlist nl = load_benchmark("s344");
  FunctionalBistConfig cfg = trimming_config();
  cfg.hold_period_log2 = 2;
  cfg.hold_set = {0, 2};
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);

  std::vector<std::uint32_t> detect(faults.size(), 0);
  const FunctionalBistResult run =
      FunctionalBistGenerator(nl, cfg).run(faults, detect);
  ASSERT_GT(run.num_seeds, 0u);

  Pcg32 stream(cfg.rng_seed, 0xb5ad4eceda1ce2a9ULL);
  std::size_t draws = 0;
  constexpr std::size_t kMaxDraws = 100000;
  for (const SequenceRecord& seq : run.sequences) {
    for (const SegmentRecord& seg : seq.segments) {
      while (draws < kMaxDraws &&
             static_cast<std::uint32_t>(stream.next() | 1u) != seg.seed) {
        ++draws;
      }
      ASSERT_LT(draws, kMaxDraws) << "seed " << seg.seed << " off the stream";
      ++draws;
    }
  }

  cfg.speculation_lanes = 1;
  std::vector<std::uint32_t> detect_again(faults.size(), 0);
  const FunctionalBistResult again =
      FunctionalBistGenerator(nl, cfg).run(faults, detect_again);
  EXPECT_EQ(detect_again, detect);
  EXPECT_EQ(again.first_detect, run.first_detect);
  ASSERT_EQ(again.tests.size(), run.tests.size());
  for (std::size_t t = 0; t < run.tests.size(); ++t) {
    EXPECT_EQ(again.tests[t].scan_state, run.tests[t].scan_state);
    EXPECT_EQ(again.tests[t].v1, run.tests[t].v1);
    EXPECT_EQ(again.tests[t].v2, run.tests[t].v2);
    EXPECT_EQ(again.tests[t].state2_override, run.tests[t].state2_override);
  }
}

}  // namespace
}  // namespace fbt
