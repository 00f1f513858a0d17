#include "fault/compaction.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "bist/functional_bist.hpp"
#include "circuits/registry.hpp"
#include "circuits/s27.hpp"
#include "fault/fault_sim.hpp"
#include "fault/serial_fault_sim.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace fbt {
namespace {

TestSet random_tests(const Netlist& nl, std::size_t count, std::uint64_t seed) {
  Pcg32 rng(seed);
  TestSet tests;
  for (std::size_t i = 0; i < count; ++i) {
    BroadsideTest t;
    for (std::size_t k = 0; k < nl.num_flops(); ++k) {
      t.scan_state.push_back(rng.chance(1, 2));
    }
    for (std::size_t k = 0; k < nl.num_inputs(); ++k) {
      t.v1.push_back(rng.chance(1, 2));
      t.v2.push_back(rng.chance(1, 2));
    }
    tests.push_back(std::move(t));
  }
  return tests;
}

std::size_t coverage_of(const Netlist& nl, const TestSet& tests,
                        const TransitionFaultList& faults) {
  BroadsideFaultSim sim(nl);
  std::vector<std::uint32_t> det(faults.size(), 0);
  sim.grade(tests, faults, det, 1);
  std::size_t covered = 0;
  for (const std::uint32_t c : det) covered += (c >= 1);
  return covered;
}

std::vector<std::size_t> singleton_groups(std::size_t num_tests) {
  std::vector<std::size_t> group_of(num_tests);
  for (std::size_t t = 0; t < num_tests; ++t) group_of[t] = t;
  return group_of;
}

// Reference: the no-drop matrix sweep. Simulates the full per-test detection
// matrix with the serial oracle, unions each group's detected faults, then
// walks the groups last to first keeping a group when it detects a fault no
// later kept group detects.
std::vector<std::size_t> matrix_reduce_groups(
    const Netlist& nl, const TestSet& tests, const TransitionFaultList& faults,
    const std::vector<std::size_t>& group_of, std::size_t num_groups) {
  testing::SerialFaultSim sim(nl);
  const auto matrix = sim.detection_matrix(tests, faults);
  std::vector<std::vector<std::uint32_t>> per_group(num_groups);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    for (std::size_t t = 0; t < tests.size(); ++t) {
      if (((matrix[f][t / 64] >> (t % 64)) & 1) == 0) continue;
      auto& bucket = per_group[group_of[t]];
      if (bucket.empty() || bucket.back() != f) {
        bucket.push_back(static_cast<std::uint32_t>(f));
      }
    }
  }
  std::vector<std::uint8_t> covered(faults.size(), 0);
  std::vector<std::size_t> kept;
  for (std::size_t g = num_groups; g-- > 0;) {
    const bool essential =
        std::any_of(per_group[g].begin(), per_group[g].end(),
                    [&](std::uint32_t f) { return covered[f] == 0; });
    if (!essential) continue;
    for (const std::uint32_t f : per_group[g]) covered[f] = 1;
    kept.push_back(g);
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

class CompactionPasses
    : public ::testing::TestWithParam<std::uint64_t> {};  // RNG seeds

// Property: with singleton groups reduce_groups is the reverse-order pass;
// it preserves full coverage and never grows the set.
TEST_P(CompactionPasses, PreserveCoverage) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 150, GetParam());
  const std::size_t full = coverage_of(nl, tests, faults);

  const auto kept = reduce_groups(nl, tests, faults,
                                  singleton_groups(tests.size()), tests.size());
  EXPECT_LE(kept.size(), tests.size());
  TestSet reduced;
  for (const std::size_t t : kept) reduced.push_back(tests[t]);
  EXPECT_EQ(coverage_of(nl, reduced, faults), full);
}

// reduce_groups grades with fault dropping; the reference sweeps the no-drop
// matrix. They must keep the same groups for every layout.
TEST_P(CompactionPasses, MatchesMatrixSweep) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 150, GetParam());
  for (const std::size_t size : {std::size_t{1}, std::size_t{10},
                                 std::size_t{15}, tests.size()}) {
    std::vector<std::size_t> group_of(tests.size());
    for (std::size_t t = 0; t < tests.size(); ++t) group_of[t] = t / size;
    const std::size_t num_groups = group_of.back() + 1;
    EXPECT_EQ(reduce_groups(nl, tests, faults, group_of, num_groups),
              matrix_reduce_groups(nl, tests, faults, group_of, num_groups))
        << "group size " << size;
  }
  // Empty group ids: 3 and the last id own no tests.
  std::vector<std::size_t> group_of(tests.size());
  for (std::size_t t = 0; t < tests.size(); ++t) {
    group_of[t] = t / 10 + (t / 10 >= 3 ? 1 : 0);
  }
  const std::size_t num_groups = group_of.back() + 2;
  EXPECT_EQ(reduce_groups(nl, tests, faults, group_of, num_groups),
            matrix_reduce_groups(nl, tests, faults, group_of, num_groups));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactionPasses,
                         ::testing::Values(1u, 17u, 23u, 99u, 1234u));

// The flow's own layout: one group per multi-segment sequence of a
// FunctionalBistGenerator run.
TEST(Compaction, MatchesMatrixSweepOnFlowSequences) {
  for (const std::string name : {"s298", "s386"}) {
    const Netlist nl = load_benchmark(name);
    const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
    FunctionalBistConfig cfg;
    cfg.segment_length = 256;  // 128 tests per segment: spans cross blocks
    cfg.max_segment_failures = 2;
    cfg.max_sequence_failures = 2;
    cfg.bounded = false;
    cfg.rng_seed = 7;
    FunctionalBistGenerator gen(nl, cfg);
    std::vector<std::uint32_t> detect_count(faults.size(), 0);
    const FunctionalBistResult run = gen.run(faults, detect_count);

    std::vector<std::size_t> group_of;
    for (std::size_t s = 0; s < run.sequences.size(); ++s) {
      for (const SegmentRecord& seg : run.sequences[s].segments) {
        group_of.insert(group_of.end(), seg.num_tests, s);
      }
    }
    ASSERT_EQ(group_of.size(), run.tests.size()) << name;
    const auto kept =
        reduce_groups(nl, run.tests, faults, group_of, run.sequences.size());
    EXPECT_EQ(kept, matrix_reduce_groups(nl, run.tests, faults, group_of,
                                         run.sequences.size()))
        << name;
    EXPECT_LT(kept.size(), run.sequences.size()) << name << ": none dropped";
  }
}

TEST(Compaction, NonContiguousGroupThrows) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 3, 5);
  EXPECT_THROW(reduce_groups(nl, tests, faults, {0, 1, 0}, 2), Error);
  EXPECT_THROW(reduce_groups(nl, tests, faults, {0, 1, 2}, 2), Error);
  EXPECT_THROW(reduce_groups(nl, tests, faults, {0, 1}, 2), Error);
}

TEST(Compaction, DropsRedundantDuplicates) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  TestSet tests = random_tests(nl, 40, 5);
  const std::size_t base = tests.size();
  // Duplicate the whole set: half must be droppable.
  for (std::size_t i = 0; i < base; ++i) tests.push_back(tests[i]);
  const auto kept = reduce_groups(nl, tests, faults,
                                  singleton_groups(tests.size()), tests.size());
  EXPECT_LE(kept.size(), base);
}

TEST(Compaction, GroupReductionKeepsCoverage) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 160, 7);
  // 16 groups of 10 tests (like segments from 16 seeds).
  std::vector<std::size_t> group_of(tests.size());
  for (std::size_t t = 0; t < tests.size(); ++t) group_of[t] = t / 10;
  const auto kept_groups = reduce_groups(nl, tests, faults, group_of, 16);
  EXPECT_LE(kept_groups.size(), 16u);

  TestSet reduced;
  for (std::size_t t = 0; t < tests.size(); ++t) {
    if (std::find(kept_groups.begin(), kept_groups.end(), group_of[t]) !=
        kept_groups.end()) {
      reduced.push_back(tests[t]);
    }
  }
  EXPECT_EQ(coverage_of(nl, reduced, faults),
            coverage_of(nl, tests, faults));
}

}  // namespace
}  // namespace fbt
