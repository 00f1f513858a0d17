#include "flow/bist_flow.hpp"

#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bist/embedded.hpp"
#include "circuits/registry.hpp"
#include "circuits/synth.hpp"
#include "fault/fault_sim.hpp"
#include "jobs/job_system.hpp"
#include "obs/json.hpp"
#include "obs/phase.hpp"
#include "rtl/lockstep.hpp"

namespace fbt {
namespace {

BistExperimentConfig small_experiment(const std::string& target,
                                      const std::string& driver) {
  BistExperimentConfig cfg;
  cfg.target_name = target;
  cfg.driver_name = driver;
  cfg.calibration.num_sequences = 4;
  cfg.calibration.sequence_length = 400;
  cfg.generation.segment_length = 200;
  cfg.generation.max_segment_failures = 2;
  cfg.generation.max_sequence_failures = 2;
  cfg.generation.rng_seed = 19;
  return cfg;
}

TEST(BistFlow, UnconstrainedExperimentEndToEnd) {
  const BistExperimentResult r =
      run_bist_experiment(small_experiment("s298", "buffers"));
  EXPECT_GT(r.swa_func, 0.0);
  EXPECT_FALSE(r.generation.bounded);  // buffers row: no SWA constraint
  EXPECT_GT(r.detected, 0u);
  EXPECT_GT(r.fault_coverage_percent, 20.0);
  EXPECT_GT(r.hw_area, 0.0);
  EXPECT_GT(r.circuit_area_um2, r.hw_area / 10.0);
  EXPECT_NEAR(r.overhead_percent,
              100.0 * r.hw_area / r.circuit_area_um2, 1e-9);
}

TEST(BistFlow, PoolOverloadMatchesSerialReference) {
  const BistExperimentConfig cfg = small_experiment("s298", "buffers");
  const BistExperimentResult serial = run_bist_experiment(cfg);
  jobs::JobSystem jobs(4);  // the CI container may report one core
  const BistExperimentResult pooled =
      run_bist_experiment(cfg, jobs, ExperimentArtifacts{});
  EXPECT_EQ(pooled.run.num_tests, serial.run.num_tests);
  EXPECT_EQ(pooled.run.num_seeds, serial.run.num_seeds);
  EXPECT_EQ(pooled.detected, serial.detected);
  EXPECT_EQ(pooled.detect_count, serial.detect_count);
  EXPECT_DOUBLE_EQ(pooled.swa_func, serial.swa_func);
  EXPECT_DOUBLE_EQ(pooled.fault_coverage_percent,
                   serial.fault_coverage_percent);
}

#if FBT_OBS_ENABLED
TEST(BistFlow, ChromeTraceShowsTheCalibrationLanesAcrossWorkers) {
  // Calibration posts helper lanes for its sequences, and the exported trace
  // of the run must tie them back to the flow: every parent edge resolves
  // to a recorded span and every flow arrow's start has a matching finish.
  // Which lane runs which sequence is up to the scheduler (the caller may
  // run them all), so worker rows are pinned separately, by a test that
  // forces a cross-thread hop
  // (JobSystemTracing.BlockedSiblingsLandOnTwoWorkerRows). A helper that
  // started too late to take a sequence still draws its arrow; destroying
  // the pool runs every queued helper first.
  obs::PhaseTrace::instance().clear();
  const BistExperimentConfig cfg = small_experiment("s298", "buffers");
  {
    jobs::JobSystem jobs(4);
    (void)run_bist_experiment(cfg, jobs, ExperimentArtifacts{});
  }

  const std::string json = obs::PhaseTrace::instance().chrome_trace_json();
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(json, doc, error)) << error;
  ASSERT_TRUE(doc.is_array());

  std::set<double> span_ids;
  std::set<double> flow_starts;
  std::set<double> flow_finishes;
  bool saw_experiment_span = false;
  for (const obs::JsonValue& event : doc.array) {
    const std::string ph = event.find("ph")->as_string("");
    if (ph == "X") {
      span_ids.insert(event.find("args")->find("span_id")->as_number());
      saw_experiment_span |=
          event.find("name")->as_string("") == "bist_experiment";
    } else if (ph == "s") {
      flow_starts.insert(event.find("id")->as_number());
    } else if (ph == "f") {
      flow_finishes.insert(event.find("id")->as_number());
    }
  }
  EXPECT_TRUE(saw_experiment_span);
  // Correct parent/child edges: every non-zero parent is a recorded span.
  for (const obs::JsonValue& event : doc.array) {
    if (event.find("ph")->as_string("") != "X") continue;
    const double parent =
        event.find("args")->find("parent_span_id")->as_number();
    if (parent != 0.0) {
      EXPECT_EQ(span_ids.count(parent), 1u) << parent;
    }
  }
  // Flow arrows pair post sites with the workers that ran the lanes.
  EXPECT_FALSE(flow_starts.empty());
  EXPECT_EQ(flow_starts, flow_finishes);
}
#endif  // FBT_OBS_ENABLED

TEST(BistFlow, SuppliedArtifactsAreBitIdenticalToDerived) {
  // The serving cache hands pre-computed artifacts to the flow; supplying
  // them must not change a single result byte versus deriving them.
  const BistExperimentConfig cfg = small_experiment("s298", "buffers");
  jobs::JobSystem jobs(4);
  const BistExperimentResult derived =
      run_bist_experiment(cfg, jobs, ExperimentArtifacts{});

  ExperimentArtifacts artifacts;
  artifacts.target =
      std::make_shared<const Netlist>(load_benchmark(cfg.target_name));
  artifacts.driver = std::make_shared<const Netlist>(
      make_buffers_block(artifacts.target->num_inputs()));
  artifacts.faults = std::make_shared<const TransitionFaultList>(
      TransitionFaultList::collapsed(*artifacts.target));
  artifacts.swa_func_percent = derived.swa_func;

  const BistExperimentResult supplied =
      run_bist_experiment(cfg, jobs, artifacts);
  EXPECT_EQ(supplied.detect_count, derived.detect_count);
  EXPECT_EQ(supplied.run.num_tests, derived.run.num_tests);
  EXPECT_EQ(supplied.run.num_seeds, derived.run.num_seeds);
  EXPECT_DOUBLE_EQ(supplied.swa_func, derived.swa_func);
  EXPECT_DOUBLE_EQ(supplied.fault_coverage_percent,
                   derived.fault_coverage_percent);
  ASSERT_EQ(supplied.run.first_detect.size(), derived.run.first_detect.size());
  for (std::size_t i = 0; i < derived.run.first_detect.size(); ++i) {
    EXPECT_EQ(supplied.run.first_detect[i].test,
              derived.run.first_detect[i].test) << i;
    EXPECT_EQ(supplied.run.first_detect[i].seed,
              derived.run.first_detect[i].seed) << i;
  }
}

TEST(BistFlow, ConstrainedExperimentBoundsSwitching) {
  const BistExperimentResult r =
      run_bist_experiment(small_experiment("s298", "s386"));
  EXPECT_TRUE(r.generation.bounded);
  EXPECT_GT(r.swa_func, 0.0);
  EXPECT_LE(r.run.peak_swa, r.swa_func + 1e-9);
}

TEST(BistFlow, ConstraintsOnlyLowerTheBound) {
  const BistExperimentResult free =
      run_bist_experiment(small_experiment("s298", "buffers"));
  const BistExperimentResult tied =
      run_bist_experiment(small_experiment("s298", "s386"));
  // A driving block filters the input space, so the functional peak under it
  // cannot exceed the unconstrained peak by more than simulation noise.
  EXPECT_LE(tied.swa_func, free.swa_func * 1.15);
}

TEST(BistFlow, SequenceReductionPreservesCoverage) {
  BistExperimentConfig cfg = small_experiment("s298", "buffers");
  cfg.reduce_sequences = true;
  const BistExperimentResult reduced = run_bist_experiment(cfg);
  cfg.reduce_sequences = false;
  const BistExperimentResult full = run_bist_experiment(cfg);

  EXPECT_LE(reduced.run.num_seeds, reduced.seeds_before_reduction);
  EXPECT_LE(reduced.run.sequences.size(),
            reduced.sequences_before_reduction);
  // Same construction -> same detection credit; the kept tests must regrade
  // to the same coverage.
  EXPECT_EQ(reduced.detected, full.detected);
  BroadsideFaultSim fsim(reduced.target);
  std::vector<std::uint32_t> regraded(reduced.faults.size(), 0);
  fsim.grade(reduced.run.tests, reduced.faults, regraded, 1);
  std::size_t covered = 0;
  for (const std::uint32_t c : regraded) covered += (c >= 1);
  EXPECT_EQ(covered, reduced.detected);
}

/// (seed, length) of every committed segment, sequence by sequence.
std::vector<std::vector<std::pair<std::uint32_t, std::size_t>>> segments_of(
    const BistExperimentResult& r) {
  std::vector<std::vector<std::pair<std::uint32_t, std::size_t>>> out;
  for (const SequenceRecord& seq : r.run.sequences) {
    out.emplace_back();
    for (const SegmentRecord& seg : seq.segments) {
      out.back().emplace_back(seg.seed, seg.length);
    }
  }
  return out;
}

TEST(BistFlow, PoolSizeLeavesTheFlowBitIdentical) {
  // The pool runs calibration's sequences; everything else runs on the
  // calling thread. One worker or four, every committed segment, detect
  // count, and first-detect attribution must match.
  const BistExperimentConfig cfg = small_experiment("s298", "buffers");
  jobs::JobSystem one(1);
  jobs::JobSystem four(4);
  const BistExperimentResult a =
      run_bist_experiment(cfg, one, ExperimentArtifacts{});
  const BistExperimentResult b =
      run_bist_experiment(cfg, four, ExperimentArtifacts{});
  EXPECT_EQ(b.detect_count, a.detect_count);
  EXPECT_EQ(b.run.first_detect, a.run.first_detect);
  EXPECT_EQ(segments_of(b), segments_of(a));
  EXPECT_EQ(b.run.num_tests, a.run.num_tests);
}

TEST(BistFlow, NoOpConfigFieldsAreInert) {
  // num_threads, fault_pack_width, and speculation_lanes remain only so old
  // callers compile; no value of them may change a result.
  BistExperimentConfig cfg = small_experiment("s298", "buffers");
  const BistExperimentResult reference = run_bist_experiment(cfg);
  cfg.num_threads = 7;
  cfg.fault_pack_width = 1;
  cfg.speculation_lanes = 1;
  cfg.generation.num_threads = 7;
  cfg.generation.fault_pack_width = 1;
  cfg.generation.speculation_lanes = 1;
  const BistExperimentResult knobbed = run_bist_experiment(cfg);
  EXPECT_EQ(knobbed.detect_count, reference.detect_count);
  EXPECT_EQ(knobbed.run.first_detect, reference.run.first_detect);
  EXPECT_EQ(segments_of(knobbed), segments_of(reference));
}

TEST(BistFlow, EmitsRtlThatTracksTheGeneratedPlan) {
  BistExperimentConfig cfg = small_experiment("s298", "buffers");
  cfg.generation.tpg.lfsr_stages = 8;
  cfg.generation.tpg.bias_bits = 2;
  cfg.scan = equal_partition_scan_config(14);  // s298 has 14 flops
  cfg.emit_rtl = true;
  cfg.rtl_misr_stages = 16;
  const BistExperimentResult r = run_bist_experiment(cfg);
  ASSERT_TRUE(r.rtl.has_value());
  EXPECT_FALSE(r.rtl->verilog.empty());
  EXPECT_EQ(r.rtl->inventory.cut_flops, r.target.num_flops());

  // The flow's emitted RTL passes the full lockstep against the session that
  // replays its own plan.
  SessionConfig session;
  session.misr_stages = cfg.rtl_misr_stages;
  session.tpg = r.generation.tpg;
  const RtlDesign design = elaborate_verilog(r.rtl->verilog, r.rtl->top_name);
  const LockstepReport rep =
      run_lockstep(r.target, r.run, r.scan, session, *r.rtl, design);
  EXPECT_TRUE(rep.ok) << rep.mismatches << " mismatches";
  EXPECT_TRUE(rep.done_asserted);
}

TEST(BistFlow, HoldExperimentImprovesOrKeepsCoverage) {
  BistExperimentResult base =
      run_bist_experiment(small_experiment("s298", "s386"));
  const std::size_t before = base.detected;

  HoldSelectionConfig hold;
  hold.tree_height = 2;
  hold.hold_period_log2 = 2;
  hold.eval = base.generation;
  hold.eval.max_segment_failures = 1;
  hold.eval.max_sequence_failures = 1;
  hold.commit = base.generation;
  const HoldExperimentResult r = run_hold_experiment(base, hold, 31);
  EXPECT_GE(r.detected_total, before);
  EXPECT_GE(r.final_coverage_percent, base.fault_coverage_percent - 1e-9);
  EXPECT_GE(r.hw_area, base.hw_area * 0.9);
}

}  // namespace
}  // namespace fbt
