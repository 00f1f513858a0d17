// PPSFP packed-grading equivalence suite.
//
// The serial oracle (one fault at a time, 64 tests per word;
// serial_fault_sim.hpp) is the reference; BroadsideFaultSim (up to 64 faults
// per word against the shared good-machine trace) must reproduce its detect
// counts, detection matrices, and first-detect provenance bit for bit, on
// every registry benchmark and at every block boundary.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/registry.hpp"
#include "circuits/s27.hpp"
#include "fault/fault_sim.hpp"
#include "fault/serial_fault_sim.hpp"
#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace fbt {
namespace {

using testing::SerialFaultSim;

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

/// Counts, newly-complete total, and provenance of one grade() call.
struct GradeRun {
  std::vector<std::uint32_t> counts;
  std::size_t fresh = 0;
  GradeProvenance prov;
};

template <typename Sim>
GradeRun grade_with(const Netlist& nl, const TestSet& tests,
                    const TransitionFaultList& faults,
                    std::vector<std::uint32_t> counts, std::uint32_t limit) {
  Sim sim(nl);
  GradeRun out;
  out.counts = std::move(counts);
  out.fresh = sim.grade(tests, faults, out.counts, limit, &out.prov);
  return out;
}

/// Grades with the engine and the oracle from the same initial credit and
/// expects identical results; returns the serial run.
GradeRun expect_engines_agree(const Netlist& nl, const TestSet& tests,
                              const TransitionFaultList& faults,
                              const std::vector<std::uint32_t>& init,
                              std::uint32_t limit, const std::string& what) {
  const GradeRun serial =
      grade_with<SerialFaultSim>(nl, tests, faults, init, limit);
  const GradeRun packed =
      grade_with<BroadsideFaultSim>(nl, tests, faults, init, limit);
  EXPECT_EQ(packed.fresh, serial.fresh) << what;
  EXPECT_EQ(packed.counts, serial.counts) << what;
  EXPECT_EQ(packed.prov.first_hits, serial.prov.first_hits) << what;
  EXPECT_EQ(packed.prov.blocks, serial.prov.blocks) << what;
  return serial;
}

// Acceptance criterion: detect counts and first-detect provenance identical
// to the serial engine on every registry benchmark, at a dropping limit (1)
// and an n-detect limit (3).
TEST(PpsfpEquivalence, GradeMatchesSerialOnEveryRegistryBenchmark) {
  for (const BenchmarkSpec& spec : benchmark_registry()) {
    const Netlist nl = load_benchmark(spec.name);
    const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
    // Small circuits get several blocks; big ones one block to bound runtime.
    const std::size_t num_tests = spec.num_gates <= 1000 ? 130 : 64;
    const TestSet tests = random_tests(nl, num_tests, spec.seed + 9);
    for (const std::uint32_t limit : {1u, 3u}) {
      const GradeRun serial = expect_engines_agree(
          nl, tests, faults, std::vector<std::uint32_t>(faults.size(), 0),
          limit, spec.name + " limit=" + std::to_string(limit));
      EXPECT_FALSE(serial.prov.first_hits.empty()) << spec.name;
    }
  }
}

// The no-dropping per-test matrix must also be identical: it exercises the
// packed walk without the active-list pruning the grade path relies on.
TEST(PpsfpEquivalence, DetectionMatrixMatchesSerialOnEveryRegistryBenchmark) {
  for (const BenchmarkSpec& spec : benchmark_registry()) {
    const Netlist nl = load_benchmark(spec.name);
    const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
    const std::size_t num_tests = spec.num_gates <= 1000 ? 130 : 64;
    const TestSet tests = random_tests(nl, num_tests, spec.seed + 10);
    SerialFaultSim serial(nl);
    BroadsideFaultSim packed(nl);
    EXPECT_EQ(packed.detection_matrix(tests, faults),
              serial.detection_matrix(tests, faults))
        << spec.name;
  }
}

// state2_override replaces the captured state between frames (the §4.3
// sequence-reduction path); the packed engine must honor it identically.
TEST(PpsfpEquivalence, State2OverrideMatchesSerial) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::uncollapsed(nl);
  TestSet tests = random_tests(nl, 96, 41);
  Pcg32 rng(42);
  for (std::size_t i = 0; i < tests.size(); i += 2) {
    // Every other test gets an arbitrary (possibly unreachable) s2.
    BroadsideTest t = tests[i];
    for (std::size_t k = 0; k < nl.num_flops(); ++k) {
      t.state2_override.push_back(rng.chance(1, 2));
    }
    tests.set(i, t);
  }
  expect_engines_agree(nl, tests, faults,
                       std::vector<std::uint32_t>(faults.size(), 0), 3,
                       "state2_override");
  SerialFaultSim serial(nl);
  BroadsideFaultSim packed(nl);
  EXPECT_EQ(packed.detection_matrix(tests, faults),
            serial.detection_matrix(tests, faults));
}

// The single-query convenience must agree fault by fault, test by test.
TEST(PpsfpEquivalence, DetectsAgreesWithSerial) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::uncollapsed(nl);
  const TestSet tests = random_tests(nl, 24, 47);

  SerialFaultSim serial(nl);
  BroadsideFaultSim packed(nl);
  for (const BroadsideTest& t : tests) {
    for (std::size_t f = 0; f < faults.size(); ++f) {
      EXPECT_EQ(packed.detects(t, faults.fault(f)),
                serial.detects(t, faults.fault(f)))
          << "fault " << f;
    }
  }
}

class GradeEdgeCases : public ::testing::TestWithParam<std::size_t> {};

// Block-boundary test counts: 1, 63, 64, 65 tests (and a 3-block set).
TEST_P(GradeEdgeCases, EnginesAgreeAtBlockBoundaries) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, GetParam(), 11);
  for (const std::uint32_t limit : {1u, 3u}) {
    expect_engines_agree(nl, tests, faults,
                         std::vector<std::uint32_t>(faults.size(), 0), limit,
                         "limit=" + std::to_string(limit));
  }
}

INSTANTIATE_TEST_SUITE_P(BlockBoundaries, GradeEdgeCases,
                         ::testing::Values(1u, 63u, 64u, 65u, 130u));

TEST(GradeEdgeCases, AllFaultsSaturatedUpFrontLoadsNothing) {
  // Saturate every fault up front: grade must return 0, change nothing, and
  // load no blocks (the active list starts empty).
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 256, 13);
  const std::vector<std::uint32_t> saturated(faults.size(), 1);
  const GradeRun run =
      grade_with<BroadsideFaultSim>(nl, tests, faults, saturated, 1);
  EXPECT_EQ(run.fresh, 0u);
  EXPECT_EQ(run.counts, saturated);
  EXPECT_TRUE(run.prov.blocks.empty());
}

TEST(GradeEdgeCases, HalfSaturatedUpFrontMatchesSerial) {
  // Faults that start at the limit never enter the active list; the
  // survivors still span several blocks.
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 130, 29);  // three blocks
  const std::size_t half = faults.size() / 2;
  for (const bool saturate_low : {true, false}) {
    std::vector<std::uint32_t> init(faults.size(), 0);
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if ((f < half) == saturate_low) init[f] = 4;
    }
    const GradeRun serial = expect_engines_agree(
        nl, tests, faults, init, 4,
        "low=" + std::to_string(saturate_low));
    EXPECT_GT(serial.prov.blocks.size(), 1u);
  }
}

TEST(GradeEdgeCases, DroppedFaultsStopAccumulatingMidSet) {
  // detect_limit == 1: every fault detected by an early block must keep
  // exactly count 1 no matter how many later tests also detect it.
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  TestSet tests = random_tests(nl, 64, 17);
  const std::size_t base = tests.size();
  for (std::size_t i = 0; i < base; ++i) tests.push_back(tests[i]);  // repeat
  const GradeRun serial = expect_engines_agree(
      nl, tests, faults, std::vector<std::uint32_t>(faults.size(), 0), 1,
      "repeated set");
  for (const std::uint32_t c : serial.counts) EXPECT_LE(c, 1u);
}

TEST(GradeEdgeCases, CarriesDetectionCreditInAndOut) {
  // A second grade of the same tests starts from the first one's counts.
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 96, 3);
  const GradeRun first = expect_engines_agree(
      nl, tests, faults, std::vector<std::uint32_t>(faults.size(), 0), 4,
      "first pass");
  const GradeRun second =
      expect_engines_agree(nl, tests, faults, first.counts, 4, "second pass");
  // Every fault already has credit, so none is "first detected" again.
  EXPECT_FALSE(first.prov.first_hits.empty());
  EXPECT_TRUE(second.prov.first_hits.empty());
  // First hits are sorted by fault index and name a test inside the set.
  for (std::size_t i = 1; i < first.prov.first_hits.size(); ++i) {
    EXPECT_LT(first.prov.first_hits[i - 1].fault,
              first.prov.first_hits[i].fault);
  }
  for (const FirstDetectHit& hit : first.prov.first_hits) {
    EXPECT_LT(hit.test, tests.size());
  }
}

#if FBT_OBS_ENABLED
TEST(PpsfpEquivalence, PackEfficiencyCountersTrackThePackedEngineOnly) {
  const Netlist nl = make_s27();
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const TestSet tests = random_tests(nl, 64, 53);

  const auto groups = [] {
    return obs::registry().counter("fault.pack_groups_simulated").value();
  };
  const auto wasted = [] {
    return obs::registry().counter("fault.pack_lanes_wasted").value();
  };

  SerialFaultSim serial(nl);
  std::vector<std::uint32_t> counts(faults.size(), 0);
  const std::uint64_t groups0 = groups();
  serial.grade(tests, faults, counts, 3);
  EXPECT_EQ(groups(), groups0);  // the serial oracle never packs

  BroadsideFaultSim packed(nl);
  std::fill(counts.begin(), counts.end(), 0);
  const std::uint64_t groups1 = groups();
  const std::uint64_t wasted1 = wasted();
  packed.grade(tests, faults, counts, 3);
  const std::uint64_t simulated = groups() - groups1;
  const std::uint64_t idle = wasted() - wasted1;
  EXPECT_GT(simulated, 0u);
  // Wasted lanes are bounded by the lanes offered: groups x 64.
  EXPECT_LT(idle, simulated * 64);
}
#endif

}  // namespace
}  // namespace fbt
