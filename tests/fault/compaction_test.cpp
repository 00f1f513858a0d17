#include "fault/compaction.hpp"

#include <gtest/gtest.h>

#include "circuits/s27.hpp"
#include "fault/fault_sim.hpp"
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

class CompactionPasses
    : public ::testing::TestWithParam<std::uint64_t> {};  // RNG seeds

// Property: both passes preserve full coverage and never grow the set.
TEST_P(CompactionPasses, PreserveCoverage) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 150, GetParam());
  const std::size_t full = coverage_of(nl, tests, faults);

  using CompactionFn = std::vector<std::size_t> (*)(
      const Netlist&, const TestSet&, const TransitionFaultList&);
  for (const CompactionFn compaction :
       {static_cast<CompactionFn>(reverse_order_compaction),
        static_cast<CompactionFn>(forward_looking_compaction)}) {
    const auto kept = compaction(nl, tests, faults);
    EXPECT_LE(kept.size(), tests.size());
    TestSet reduced;
    for (const std::size_t t : kept) reduced.push_back(tests[t]);
    EXPECT_EQ(coverage_of(nl, reduced, faults), full);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompactionPasses,
                         ::testing::Values(1u, 17u, 23u, 99u, 1234u));

TEST(Compaction, ForwardLookingNotWorseThanReverse) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  std::size_t fl_total = 0;
  std::size_t ro_total = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const TestSet tests = random_tests(nl, 200, seed);
    fl_total += forward_looking_compaction(nl, tests, faults).size();
    ro_total += reverse_order_compaction(nl, tests, faults).size();
  }
  EXPECT_LE(fl_total, ro_total + 4);  // on average at least as good
}

TEST(Compaction, DropsRedundantDuplicates) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  TestSet tests = random_tests(nl, 40, 5);
  const std::size_t base = tests.size();
  // Duplicate the whole set: half must be droppable.
  for (std::size_t i = 0; i < base; ++i) tests.push_back(tests[i]);
  const auto kept = forward_looking_compaction(nl, tests, faults);
  EXPECT_LE(kept.size(), base);
}

TEST(Compaction, PrecomputedPerTestListsMatchRecomputation) {
  // The overloads taking PerTestFaults must agree with the convenience
  // overloads that simulate the matrix themselves -- one simulation feeding
  // all passes instead of one per pass.
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 120, 21);
  const PerTestFaults per_test = detected_by_test(nl, tests, faults);

  EXPECT_EQ(reverse_order_compaction(per_test, faults.size()),
            reverse_order_compaction(nl, tests, faults));
  EXPECT_EQ(forward_looking_compaction(per_test, faults.size()),
            forward_looking_compaction(nl, tests, faults));

  std::vector<std::size_t> group_of(tests.size());
  for (std::size_t t = 0; t < tests.size(); ++t) group_of[t] = t / 15;
  EXPECT_EQ(reduce_groups(per_test, faults.size(), group_of, 8),
            reduce_groups(nl, tests, faults, group_of, 8));
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
