// State-holding selection and SWA_func calibration run their independent
// simulations on the job pool. The selected sets, detection credit,
// aggregates, event journal and calibrated peak must not depend on the
// pool's size. The four-worker legs run concurrently, so this suite also runs
// under TSan in CI.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bist/embedded.hpp"
#include "bist/functional_bist.hpp"
#include "bist/state_holding.hpp"
#include "circuits/registry.hpp"
#include "jobs/job_system.hpp"
#include "obs/event_journal.hpp"
#include "obs/phase.hpp"

namespace fbt {
namespace {

FunctionalBistConfig construction_config(std::size_t failures) {
  FunctionalBistConfig cfg;
  cfg.segment_length = 150;
  cfg.max_segment_failures = failures;
  cfg.max_sequence_failures = failures;
  cfg.bounded = false;
  return cfg;
}

/// Detection credit of a short functional run on s298: the residual set the
/// state-holding phase starts from.
std::vector<std::uint32_t> phase1_detect_count(
    const Netlist& nl, const TransitionFaultList& faults) {
  std::vector<std::uint32_t> detect(faults.size(), 0);
  FunctionalBistConfig cfg = construction_config(2);
  cfg.rng_seed = 3;
  FunctionalBistGenerator(nl, cfg).run(faults, detect);
  return detect;
}

struct HoldRun {
  HoldSelectionResult result;
  std::vector<std::uint32_t> detect_count;
  std::string ndjson;
};

HoldRun run_hold(std::size_t workers) {
  const Netlist nl = load_benchmark("s298");
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  HoldRun out;
  out.detect_count = phase1_detect_count(nl, faults);
  HoldSelectionConfig cfg;
  cfg.tree_height = 3;  // 15 Det runs
  cfg.hold_period_log2 = 2;
  cfg.eval = construction_config(1);
  cfg.commit = construction_config(2);
  jobs::JobSystem pool(workers);
  obs::EventJournal sink;
  obs::PhaseTrace::instance().clear();  // keep only the hold phase's spans
  {
    const obs::JournalScope scope(sink);
    out.result = select_and_run_hold_sets(nl, faults, out.detect_count, cfg,
                                          /*rng_seed=*/5, pool);
  }
  out.ndjson = sink.ndjson();
  return out;
}

TEST(PoolIdentity, HoldSelectionDoesNotDependOnPoolSize) {
  const HoldRun serial = run_hold(1);
  const HoldRun pooled = run_hold(4);
  const HoldSelectionResult& a = serial.result;
  const HoldSelectionResult& b = pooled.result;
  ASSERT_EQ(a.selected.size(), b.selected.size());
  for (std::size_t k = 0; k < a.selected.size(); ++k) {
    EXPECT_EQ(a.selected[k].flops, b.selected[k].flops);
    EXPECT_EQ(a.selected[k].result.num_tests, b.selected[k].result.num_tests);
    EXPECT_EQ(a.selected[k].result.first_detect,
              b.selected[k].result.first_detect);
  }
  EXPECT_EQ(serial.detect_count, pooled.detect_count);
  EXPECT_EQ(a.total_held_flops, b.total_held_flops);
  EXPECT_EQ(a.num_sequences, b.num_sequences);
  EXPECT_EQ(a.nseg_max, b.nseg_max);
  EXPECT_EQ(a.lmax, b.lmax);
  EXPECT_EQ(a.num_seeds, b.num_seeds);
  EXPECT_EQ(a.num_tests, b.num_tests);
  EXPECT_EQ(a.peak_swa, b.peak_swa);
  EXPECT_EQ(a.newly_detected, b.newly_detected);
  EXPECT_EQ(serial.ndjson, pooled.ndjson);
#if FBT_OBS_ENABLED
  EXPECT_FALSE(serial.ndjson.empty());
#endif
}

#if FBT_OBS_ENABLED
// The hold phase is one span tree: the Det runs, which the pool executes,
// nest under "select" and the committed runs under "commit", instead of
// landing at the root as bare "construct" spans.
TEST(PoolIdentity, HoldPhaseSpansNestUnderOneHoldRoot) {
  run_hold(4);
  const std::vector<obs::PhaseSummary> roots =
      obs::PhaseTrace::instance().summarize();
  ASSERT_EQ(roots.size(), 1u);
  const obs::PhaseSummary& hold = roots[0];
  EXPECT_EQ(hold.name, "hold");
  ASSERT_EQ(hold.children.size(), 2u);
  const obs::PhaseSummary& select = hold.children[0];
  const obs::PhaseSummary& commit = hold.children[1];
  EXPECT_EQ(select.name, "select");
  EXPECT_EQ(commit.name, "commit");
  ASSERT_EQ(select.children.size(), 1u);
  EXPECT_EQ(select.children[0].name, "construct");
  EXPECT_EQ(select.children[0].count, 15u);  // every Det run of H = 3
  for (const obs::PhaseSummary& child : commit.children) {
    EXPECT_EQ(child.name, "construct");
  }
}
#endif

TEST(PoolIdentity, CountOnlyRunMatchesFullRun) {
  const Netlist nl = load_benchmark("s298");
  const TransitionFaultList faults = TransitionFaultList::collapsed(nl);
  const std::vector<std::uint32_t> baseline = phase1_detect_count(nl, faults);
  FunctionalBistConfig cfg = construction_config(1);
  cfg.hold_period_log2 = 2;
  cfg.hold_set = {0, 3, 5, 7};
  cfg.rng_seed = 11;

  std::vector<std::uint32_t> full_detect = baseline;
  obs::EventJournal full_journal;
  FunctionalBistResult full;
  {
    const obs::JournalScope scope(full_journal);
    full = FunctionalBistGenerator(nl, cfg).run(faults, full_detect);
  }
  std::vector<std::uint32_t> count_detect = baseline;
  obs::EventJournal count_journal;
  std::size_t counted = 0;
  {
    const obs::JournalScope scope(count_journal);
    counted = FunctionalBistGenerator(nl, cfg).count_new_detections(
        faults, count_detect);
  }
  EXPECT_EQ(counted, full.newly_detected);
  EXPECT_EQ(count_detect, full_detect);
  EXPECT_EQ(count_journal.ndjson(), full_journal.ndjson());
}

TEST(PoolIdentity, SwaFuncDoesNotDependOnPoolSize) {
  const Netlist target = load_benchmark("s298");
  const Netlist driver = load_benchmark("s386");
  SwaCalibrationConfig cal;
  cal.num_sequences = 6;
  cal.sequence_length = 300;
  jobs::JobSystem one(1);
  jobs::JobSystem four(4);
  const double serial = measure_swa_func(target, driver, cal, one).peak_percent;
  const double pooled =
      measure_swa_func(target, driver, cal, four).peak_percent;
  EXPECT_GT(serial, 0.0);
  EXPECT_EQ(serial, pooled);
  // The sequence-major profile walks the same sequences, so it finds the
  // same peak.
  EXPECT_EQ(serial,
            measure_functional_profile(target, driver, cal).peak_percent);
}

}  // namespace
}  // namespace fbt
