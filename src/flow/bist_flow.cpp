#include "flow/bist_flow.hpp"

#include <algorithm>

#include "circuits/registry.hpp"
#include "circuits/synth.hpp"
#include "fault/compaction.hpp"
#include "obs/instrument.hpp"
#include "util/require.hpp"

namespace fbt {

BistExperimentResult run_bist_experiment(const BistExperimentConfig& config) {
  return run_bist_experiment(config, jobs::global_jobs(), ExperimentArtifacts{});
}

BistExperimentResult run_bist_experiment(const BistExperimentConfig& config,
                                         jobs::JobSystem& jobs,
                                         const ExperimentArtifacts& artifacts) {
  // Nested spans open inside the library calls: calibrate (measure_swa_func),
  // construct + grade (FunctionalBistGenerator), reduce (reduce_groups),
  // cost (plan_functional_bist_hardware).
  FBT_OBS_PHASE("bist_experiment");
  const bool unconstrained =
      config.driver_name.empty() || config.driver_name == "buffers";

  // Artifact stage: load the target, build or load the driving block,
  // collapse the faults, then calibrate SWA_func. Each step whose result the
  // caller supplies is a copy. The TPG is built for the driving block inside
  // measure_swa_func, whose sequences run on the pool; for the buffers block
  // that reduces to unbiased patterns straight into the target, giving the
  // unconstrained peak (§4.6).
  Netlist target = artifacts.target != nullptr
                       ? *artifacts.target
                       : load_benchmark(config.target_name);
  const Netlist driver = artifacts.driver != nullptr ? *artifacts.driver
                         : unconstrained
                             ? make_buffers_block(target.num_inputs())
                             : load_benchmark(config.driver_name);
  TransitionFaultList faults = artifacts.faults != nullptr
                                   ? *artifacts.faults
                                   : TransitionFaultList::collapsed(target);
  const double swa_func =
      artifacts.swa_func_percent.has_value()
          ? *artifacts.swa_func_percent
          : measure_swa_func(target, driver, config.calibration, jobs)
                .peak_percent;

  FunctionalBistConfig gen = config.generation;
  gen.swa_bound_percent = swa_func;
  gen.bounded = !unconstrained;

  ScanChains scan(target, config.scan);
  BistExperimentResult result{.target = std::move(target),
                              .scan = std::move(scan),
                              .faults = std::move(faults),
                              .detect_count = {},
                              .swa_func = swa_func,
                              .run = {},
                              .detected = 0,
                              .fault_coverage_percent = 0.0,
                              .hw_area = 0.0,
                              .circuit_area_um2 = 0.0,
                              .overhead_percent = 0.0,
                              .nsp = 0,
                              .generation = gen,
                              .rtl = {}};
  result.detect_count.assign(result.faults.size(), 0);

  FunctionalBistGenerator generator(result.target, gen);
  result.nsp = generator.tpg().cube().specified_count();
  result.run = generator.run(result.faults, result.detect_count);
  result.seeds_before_reduction = result.run.num_seeds;
  result.sequences_before_reduction = result.run.sequences.size();

  if (config.reduce_sequences && result.run.sequences.size() > 1) {
    // Map each test to its multi-segment sequence and drop sequences that
    // detect nothing new (reverse-order fault simulation with dropping,
    // §4.3).
    // Only whole sequences may be dropped: segments within a sequence share
    // one state trajectory.
    std::vector<std::size_t> group_of;
    group_of.reserve(result.run.tests.size());
    for (std::size_t s = 0; s < result.run.sequences.size(); ++s) {
      std::size_t tests_in_sequence = 0;
      for (const SegmentRecord& seg : result.run.sequences[s].segments) {
        tests_in_sequence += seg.num_tests;
      }
      group_of.insert(group_of.end(), tests_in_sequence, s);
    }
    require(group_of.size() == result.run.tests.size(), "run_bist_experiment",
            "internal: test/sequence bookkeeping mismatch");
    const std::vector<std::size_t> kept =
        reduce_groups(result.target, result.run.tests, result.faults, group_of,
                      result.run.sequences.size());
    if (kept.size() < result.run.sequences.size()) {
      // The kept sequences' tests are compacted in place. Attribution
      // (first_detect) records construction history: sequence/test indices
      // keep naming the pre-reduction stream, including sequences the
      // reduction dropped (a dropped sequence's detections are re-covered by
      // kept ones, but it still caught those faults first during
      // construction).
      std::vector<std::uint8_t> keep(result.run.sequences.size(), 0);
      for (const std::size_t s : kept) keep[s] = 1;
      result.run.tests.retain([&](std::size_t t) { return keep[group_of[t]]; });
      std::vector<SequenceRecord> sequences;
      result.run.num_seeds = 0;
      result.run.nseg_max = 0;
      result.run.lmax = 0;
      for (const std::size_t s : kept) {
        sequences.push_back(std::move(result.run.sequences[s]));
        for (const SegmentRecord& seg : sequences.back().segments) {
          result.run.lmax = std::max(result.run.lmax, seg.length);
          ++result.run.num_seeds;
        }
        result.run.nseg_max =
            std::max(result.run.nseg_max, sequences.back().segments.size());
      }
      result.run.sequences = std::move(sequences);
      result.run.num_tests = result.run.tests.size();
    }
  }

  result.detected = 0;
  for (const std::uint32_t c : result.detect_count) {
    if (c >= gen.detect_limit) ++result.detected;
  }
  result.fault_coverage_percent =
      result.faults.size() == 0
          ? 0.0
          : 100.0 * static_cast<double>(result.detected) /
                static_cast<double>(result.faults.size());

  const BistHardwarePlan plan =
      plan_functional_bist_hardware(generator.tpg(), result.scan, result.run);
  result.hw_area = bist_area(plan);
  result.circuit_area_um2 = circuit_area(result.target);
  result.overhead_percent =
      100.0 * result.hw_area / result.circuit_area_um2;
  if (config.emit_rtl && !result.run.sequences.empty()) {
    // Opens its own "rtl" phase span; the returned inventory reconciles with
    // `plan` by construction (enforced in tests/rtl/consistency_test.cpp).
    SessionConfig session;
    session.misr_stages = config.rtl_misr_stages;
    session.tpg = gen.tpg;
    result.rtl = emit_bist_rtl(result.target, result.run, result.scan, session);
  }

  // Resource telemetry: footprints of the big owned structures plus the
  // gate/fault denominators for the run report's derived memory analytics.
  FBT_OBS_FOOTPRINT("flow.netlist", result.target.footprint_bytes());
  FBT_OBS_FOOTPRINT("flow.fault_list", result.faults.footprint_bytes());
  FBT_OBS_FOOTPRINT("flow.tests", result.run.tests.footprint_bytes());
  FBT_OBS_FOOTPRINT("flow.detect_count",
                    result.detect_count.size() * sizeof(std::uint32_t));
  FBT_OBS_GAUGE_SET("flow.num_gates", result.target.num_gates());
  FBT_OBS_GAUGE_SET("flow.num_faults", result.faults.size());

  FBT_OBS_GAUGE_SET("flow.num_tests", result.run.num_tests);
  FBT_OBS_GAUGE_SET("flow.num_seeds", result.run.num_seeds);
  FBT_OBS_GAUGE_SET("flow.swa_func_percent", result.swa_func);
  FBT_OBS_GAUGE_SET("flow.fault_coverage_percent",
                    result.fault_coverage_percent);
  FBT_OBS_GAUGE_SET("flow.hw_overhead_percent", result.overhead_percent);
  FBT_OBS_COUNTER_ADD("flow.experiments_run", 1);
  FBT_OBS_COUNTER_ADD("flow.faults_detected", result.detected);
  return result;
}

HoldExperimentResult run_hold_experiment(BistExperimentResult& base,
                                         const HoldSelectionConfig& config,
                                         std::uint64_t rng_seed) {
  HoldExperimentResult out;
  const std::size_t before = base.detected;
  out.hold = select_and_run_hold_sets(base.target, base.faults,
                                      base.detect_count, config, rng_seed,
                                      jobs::global_jobs());

  std::size_t detected = 0;
  for (const std::uint32_t c : base.detect_count) {
    if (c >= config.commit.detect_limit) ++detected;
  }
  out.detected_total = detected;
  const double total = static_cast<double>(base.faults.size());
  out.final_coverage_percent = total == 0 ? 0.0 : 100.0 * detected / total;
  out.coverage_improvement_percent =
      total == 0 ? 0.0
                 : 100.0 * static_cast<double>(detected - before) / total;

  Tpg tpg(base.target, base.generation.tpg);
  const BistHardwarePlan plan =
      plan_hold_bist_hardware(tpg, base.scan, base.run, out.hold);
  out.hw_area = bist_area(plan);
  out.overhead_percent = 100.0 * out.hw_area / base.circuit_area_um2;
  return out;
}

}  // namespace fbt
