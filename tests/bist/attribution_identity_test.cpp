// First-detect attribution identity: the (sequence, segment, test, seed)
// recorded for every fault's first detection must be bit-identical whether
// the flow runs on a one-worker or a four-worker job pool -- the acceptance
// criterion for the provenance layer. Also pins the sentinel and
// consistency invariants of the attribution table itself.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bist/functional_bist.hpp"
#include "circuits/registry.hpp"
#include "flow/bist_flow.hpp"
#include "jobs/job_system.hpp"

namespace fbt {
namespace {

struct RunOutput {
  FunctionalBistResult result;
  std::vector<std::uint32_t> detect_count;
};

RunOutput run_generator(const Netlist& nl, const FunctionalBistConfig& cfg) {
  FunctionalBistGenerator gen(nl, cfg);
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  RunOutput out;
  out.detect_count.assign(faults.size(), 0);
  out.result = gen.run(faults, out.detect_count);
  return out;
}

FunctionalBistConfig small_config() {
  FunctionalBistConfig cfg;
  cfg.segment_length = 64;
  cfg.max_segment_failures = 2;
  cfg.max_sequence_failures = 2;
  cfg.bounded = true;
  cfg.swa_bound_percent = 30.0;
  cfg.rng_seed = 2026;
  return cfg;
}

/// Committed seeds, sequence by sequence.
std::vector<std::vector<std::uint32_t>> seeds_of(
    const FunctionalBistResult& run) {
  std::vector<std::vector<std::uint32_t>> out;
  for (const SequenceRecord& seq : run.sequences) {
    out.emplace_back();
    for (const SegmentRecord& seg : seq.segments) out.back().push_back(seg.seed);
  }
  return out;
}

TEST(AttributionIdentity, RegistryWideAcrossJobPools) {
  jobs::JobSystem one(1);
  jobs::JobSystem four(4);  // the CI container may report one core
  for (const BenchmarkSpec& spec : benchmark_registry()) {
    if (spec.num_gates > 1200) continue;  // bound the sweep's runtime
    BistExperimentConfig cfg;
    cfg.target_name = spec.name;
    cfg.calibration.num_sequences = 2;
    cfg.calibration.sequence_length = 200;
    cfg.generation = small_config();
    const BistExperimentResult a =
        run_bist_experiment(cfg, one, ExperimentArtifacts{});
    const BistExperimentResult b =
        run_bist_experiment(cfg, four, ExperimentArtifacts{});
    ASSERT_FALSE(a.run.first_detect.empty()) << spec.name;
    EXPECT_EQ(b.run.first_detect, a.run.first_detect) << spec.name;
    EXPECT_EQ(b.detect_count, a.detect_count) << spec.name;
    EXPECT_EQ(seeds_of(b.run), seeds_of(a.run)) << spec.name;
  }
}

TEST(AttributionIdentity, AttributionIsConsistentWithTheResult) {
  const Netlist nl = load_benchmark("s298");
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const RunOutput out = run_generator(nl, small_config());
  ASSERT_EQ(out.result.first_detect.size(), faults.size());

  std::size_t attributed = 0;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const FaultFirstDetect& fd = out.result.first_detect[f];
    if (fd.sequence < 0) {
      // Sentinel entries are all-sentinel.
      EXPECT_EQ(fd.segment, -1);
      EXPECT_EQ(fd.test, -1);
      continue;
    }
    ++attributed;
    // Detected faults carry credit, and the pointers land inside the run.
    EXPECT_GT(out.detect_count[f], 0u);
    ASSERT_LT(static_cast<std::size_t>(fd.sequence),
              out.result.sequences.size());
    const SequenceRecord& seq =
        out.result.sequences[static_cast<std::size_t>(fd.sequence)];
    ASSERT_LT(static_cast<std::size_t>(fd.segment), seq.segments.size());
    EXPECT_EQ(seq.segments[static_cast<std::size_t>(fd.segment)].seed, fd.seed);
    EXPECT_GE(fd.test, 0);
    EXPECT_LT(fd.test, static_cast<std::int64_t>(out.result.num_tests));
  }
  // The construction run detects faults, and every newly detected fault is
  // attributed to the segment that first caught it.
  EXPECT_GT(attributed, 0u);
  EXPECT_GE(attributed, out.result.newly_detected);
}

TEST(AttributionIdentity, PreDetectedFaultsKeepSentinels) {
  const Netlist nl = load_benchmark("s298");
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  FunctionalBistConfig cfg = small_config();
  FunctionalBistGenerator gen(nl, cfg);
  // Saturate every fault before the run: nothing is newly detected, so no
  // fault may claim attribution.
  std::vector<std::uint32_t> detect_count(faults.size(), cfg.detect_limit);
  const FunctionalBistResult result = gen.run(faults, detect_count);
  for (const FaultFirstDetect& fd : result.first_detect) {
    EXPECT_EQ(fd, FaultFirstDetect{});
  }
}

}  // namespace
}  // namespace fbt
