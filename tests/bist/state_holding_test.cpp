#include "bist/state_holding.hpp"

#include <gtest/gtest.h>

#include <set>

#include "circuits/registry.hpp"
#include "circuits/synth.hpp"
#include "circuits/s27.hpp"
#include "util/require.hpp"

namespace fbt {
namespace {

HoldSelectionConfig small_hold_config() {
  HoldSelectionConfig cfg;
  cfg.tree_height = 2;
  cfg.hold_period_log2 = 2;
  cfg.eval.segment_length = 150;
  cfg.eval.max_segment_failures = 1;
  cfg.eval.max_sequence_failures = 1;
  cfg.eval.bounded = false;
  cfg.commit.segment_length = 150;
  cfg.commit.max_segment_failures = 2;
  cfg.commit.max_sequence_failures = 2;
  cfg.commit.bounded = false;
  return cfg;
}

TEST(StateHolding, SelectedSetsAreNonOverlapping) {
  const Netlist nl = load_benchmark("s298");
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);

  // Phase 1: plain functional generation to build the residual set Fr.
  {
    FunctionalBistConfig cfg;
    cfg.segment_length = 200;
    cfg.max_segment_failures = 2;
    cfg.max_sequence_failures = 2;
    cfg.bounded = false;
    cfg.rng_seed = 3;
    FunctionalBistGenerator gen(nl, cfg);
    gen.run(faults, detect);
  }
  const std::vector<std::uint32_t> before = detect;

  const HoldSelectionResult result = select_and_run_hold_sets(
      nl, faults, detect, small_hold_config(), /*rng_seed=*/5);

  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (const HoldSetRun& run : result.selected) {
    EXPECT_FALSE(run.flops.empty());
    for (const std::size_t flop : run.flops) {
      EXPECT_LT(flop, nl.num_flops());
      EXPECT_TRUE(seen.insert(flop).second) << "flop " << flop << " reused";
      ++total;
    }
  }
  EXPECT_EQ(result.total_held_flops, total);

  // Detection credit is monotone: nothing detected before may be lost.
  std::size_t recovered = 0;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    EXPECT_GE(detect[f], before[f]);
    if (before[f] == 0 && detect[f] >= 1) ++recovered;
  }
  EXPECT_EQ(recovered, result.newly_detected);
}

TEST(StateHolding, NoFlopsMeansNoSelection) {
  const Netlist nl = make_buffers_block(4);
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);
  const HoldSelectionResult result = select_and_run_hold_sets(
      nl, faults, detect, small_hold_config(), 1);
  EXPECT_TRUE(result.selected.empty());
  EXPECT_EQ(result.newly_detected, 0u);
}

TEST(StateHolding, FullyDetectedResidualSelectsNothing) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  // Pretend every fault is already detected: Det is 0 everywhere.
  std::vector<std::uint32_t> detect(faults.size(), 1);
  const HoldSelectionResult result = select_and_run_hold_sets(
      nl, faults, detect, small_hold_config(), 9);
  EXPECT_TRUE(result.selected.empty());
  EXPECT_EQ(result.newly_detected, 0u);
}

TEST(StateHolding, TreeHeightAboveTheCapIsRejected) {
  // The tree has 2^(H+1) - 1 nodes; past the cap the work explodes, and at
  // H >= 63 the level sizes would overflow.
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);
  for (const unsigned height : {kMaxHoldTreeHeight + 1, 63u, 64u, ~0u}) {
    HoldSelectionConfig cfg = small_hold_config();
    cfg.tree_height = height;
    EXPECT_THROW(select_and_run_hold_sets(nl, faults, detect, cfg, 1), Error)
        << "H = " << height;
  }
  EXPECT_EQ(detect, std::vector<std::uint32_t>(faults.size(), 0));
}

TEST(StateHolding, AggregatesAreConsistent) {
  const Netlist nl = load_benchmark("s298");
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::vector<std::uint32_t> detect(faults.size(), 0);
  {
    FunctionalBistConfig cfg;
    cfg.segment_length = 200;
    cfg.max_segment_failures = 2;
    cfg.max_sequence_failures = 2;
    cfg.bounded = false;
    FunctionalBistGenerator gen(nl, cfg);
    gen.run(faults, detect);
  }
  const HoldSelectionResult result = select_and_run_hold_sets(
      nl, faults, detect, small_hold_config(), 17);
  std::size_t seqs = 0;
  std::size_t seeds = 0;
  std::size_t tests = 0;
  for (const HoldSetRun& run : result.selected) {
    seqs += run.result.sequences.size();
    seeds += run.result.num_seeds;
    tests += run.result.num_tests;
  }
  EXPECT_EQ(result.num_sequences, seqs);
  EXPECT_EQ(result.num_seeds, seeds);
  EXPECT_EQ(result.num_tests, tests);
}

}  // namespace
}  // namespace fbt
