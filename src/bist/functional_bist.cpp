#include "bist/functional_bist.hpp"

#include <algorithm>

#include "fault/fault_sim.hpp"
#include "obs/instrument.hpp"
#include "sim/seqsim.hpp"
#include "util/require.hpp"

namespace fbt {

FunctionalBistGenerator::FunctionalBistGenerator(
    const Netlist& netlist, const FunctionalBistConfig& config,
    std::shared_ptr<const FlatFanins> /*flat*/, jobs::JobSystem* /*jobs*/)
    : netlist_(&netlist),
      config_(config),
      tpg_(netlist, config.tpg),
      rng_(config.rng_seed, 0xb5ad4eceda1ce2a9ULL) {
  require(config.segment_length >= 2 && config.segment_length % 2 == 0,
          "FunctionalBistGenerator", "segment length L must be even and >= 2");
  require(config.max_segment_failures >= 1 && config.max_sequence_failures >= 1,
          "FunctionalBistGenerator", "R and Q must be >= 1");
  if (!config.hold_set.empty()) {
    require(config.hold_period_log2 >= 1, "FunctionalBistGenerator",
            "hold_period_log2 (h) must be >= 1 when a hold set is given");
    hold_mask_.assign(netlist.num_flops(), 0);
    for (const std::size_t flop : config.hold_set) {
      require(flop < netlist.num_flops(), "FunctionalBistGenerator",
              "hold set flop index out of range");
      hold_mask_[flop] = 1;
    }
  }
  vec_scratch_.resize(netlist.num_inputs());
}

FunctionalBistGenerator::CandidateSegment
FunctionalBistGenerator::evaluate_candidate(
    SeqSim& sim, std::uint32_t seed) {
  const std::size_t L = config_.segment_length;
  const bool holding = !hold_mask_.empty();
  const std::size_t hold_period =
      holding ? (std::size_t{1} << config_.hold_period_log2) : 0;

  // Single pass with a rolling snapshot: simulate up to L cycles, extracting
  // tests as we go. SWA(c) is the activity of the transition *into*
  // within-segment cycle c; a violation at cycle c means only p(0..c-1) is
  // usable, trimmed to the last even length so the segment ends on a test
  // boundary (§4.4). The trim point (c rounded down to even) is always the
  // last even-cycle boundary, so one snapshot there suffices to rewind.
  tpg_.reseed(seed);
  CandidateSegment result;
  swa_trace_.clear();  // per within-segment cycle
  swa_trace_.reserve(L);
  sim.snapshot_into(even_snap_);  // state at last even cycle
  std::size_t usable = L;

  for (std::size_t c = 0; c < L; ++c) {
    const bool even = (c % 2 == 0);
    if (even) {
      sim.snapshot_into(even_snap_);
      launch_state_ = sim.state();  // s(k) of the pending test
    }
    tpg_.next_vector_into(vec_scratch_);
    std::span<const std::uint8_t> held;
    if (holding && c % hold_period == 0) held = hold_mask_;
    const SeqStep step = sim.step(vec_scratch_, held);
    bool violation = config_.bounded && step.toggled_lines > 0 &&
                     step.switching_percent > config_.swa_bound_percent;
    if (!violation && config_.bounded && config_.pattern_store != nullptr &&
        step.toggled_lines > 0) {
      // §5.1 admissibility: the cycle's signal-transition pattern must be a
      // subset of a functionally observed one.
      violation = !config_.pattern_store->admits(
          make_transition_pattern(sim.prev_values(), sim.values()));
    }
    if (violation) {
      FBT_OBS_COUNTER_ADD("bist.swa_violations", 1);
      usable = c & ~std::size_t{1};  // j = c-1, rounded down to even
      // Rewind to the end of the usable prefix and drop trimmed tests.
      sim.restore(even_snap_);
      break;
    }
    swa_trace_.push_back(step.switching_percent);
    if (even) {
      mid_state_ = sim.state();  // s(k+1): after the (possibly held) update
      pending_v1_ = vec_scratch_;
    } else {
      BroadsideTest test;
      test.scan_state = launch_state_;
      test.v1 = std::move(pending_v1_);
      test.v2 = vec_scratch_;
      if (holding) test.state2_override = mid_state_;
      result.tests.push_back(std::move(test));
    }
  }

  FBT_OBS_COUNTER_ADD("bist.segments_built", 1);
  result.usable_cycles = usable;
  if (usable < 2) {
    // Ensure the simulator is back at the segment start (usable == 0 means
    // the violation hit on the first transition).
    result.tests.clear();
    result.usable_cycles = 0;
    return result;
  }
  result.tests.resize(usable / 2);
  FBT_OBS_COUNTER_ADD("bist.tests_extracted", result.tests.size());
  // Applied cycles are 0 .. usable-1; the settling of cycle `usable` happens
  // under the next segment's first vector and is measured there.
  for (std::size_t c = 0; c < std::min(usable, swa_trace_.size()); ++c) {
    result.peak_swa = std::max(result.peak_swa, swa_trace_[c]);
  }
  return result;
}

FunctionalBistResult FunctionalBistGenerator::run(
    const TransitionFaultList& faults,
    std::vector<std::uint32_t>& detect_count) {
  require(detect_count.size() == faults.size(), "FunctionalBistGenerator::run",
          "detect_count size must equal the fault count");
  FBT_OBS_PHASE("construct");

  FunctionalBistResult result;
  result.first_detect.assign(faults.size(), FaultFirstDetect{});
  BroadsideFaultSim fsim(*netlist_, BroadsideFaultSim::Engine::kPacked);
  SeqSim sim(*netlist_);

  // Provenance bookkeeping: applied-test stream position and the running
  // detected-fault count (faults at the detect limit), both advanced only by
  // accepted segments.
  std::size_t applied_tests = 0;
  std::size_t cumulative_detected = 0;
  for (const std::uint32_t c : detect_count) {
    if (c >= config_.detect_limit) ++cumulative_detected;
  }
  FBT_OBS_EVENT("construct_started",
                {{"faults", faults.size()},
                 {"initially_detected", cumulative_detected},
                 {"detect_limit", config_.detect_limit},
                 {"segment_length", config_.segment_length}});

  std::size_t sequence_failures = 0;
  while (sequence_failures < config_.max_sequence_failures) {
    // Attempt to construct one multi-segment primary input sequence, starting
    // from the reachable initial state (all-0).
    sim.load_reset_state();
    SequenceRecord sequence;
    TestSet sequence_tests;
    double sequence_peak = 0.0;
    std::size_t segment_failures = 0;
    std::vector<std::uint32_t> committed = detect_count;

    while (segment_failures < config_.max_segment_failures) {
      // Load the next LFSR seed (odd, so the LFSR never starts all-zero) and
      // simulate its candidate segment from the current state.
      const auto seed = static_cast<std::uint32_t>(rng_.next() | 1u);
      sim.snapshot_into(before_snap_);
      CandidateSegment candidate = evaluate_candidate(sim, seed);
      FBT_OBS_EVENT("seed_tried",
                    {{"sequence", result.sequences.size()},
                     {"segment", sequence.segments.size()},
                     {"seed", seed},
                     {"usable_cycles", candidate.usable_cycles},
                     {"tests", candidate.tests.size()},
                     {"peak_swa", candidate.peak_swa}});
      bool accepted = false;
      if (!candidate.tests.empty()) {
        std::vector<std::uint32_t> trial = committed;
        GradeProvenance prov;
        const std::size_t fresh = fsim.grade(candidate.tests, faults, trial,
                                             config_.detect_limit, &prov);
        if (fresh > 0) {
          // One accepted segment contributes one 2q-cycle test window per
          // extracted test; `fresh` is the faults this window set retired.
          FBT_OBS_HIST_RECORD_WITH("bist.faults_dropped_per_segment", fresh,
                                   {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
          FBT_OBS_HIST_RECORD_WITH(
              "bist.segment_peak_swa_percent", candidate.peak_swa,
              {10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
          committed = std::move(trial);
          result.newly_detected += fresh;
          accepted = true;
          // First-detect attribution: `trial` started from `committed`, so
          // prov.first_hits are exactly the faults this segment caught first
          // (an accepted segment is always committed -- a sequence with one
          // accepted segment is never discarded).
          const auto seq_idx = static_cast<std::int32_t>(
              result.sequences.size());
          const auto seg_idx = static_cast<std::int32_t>(
              sequence.segments.size());
          for (const FirstDetectHit& hit : prov.first_hits) {
            result.first_detect[hit.fault] = {
                seq_idx, seg_idx,
                static_cast<std::int64_t>(applied_tests + hit.test), seed};
          }
          for (const GradeBlockStat& block : prov.blocks) {
            cumulative_detected += block.newly_at_limit;
            FBT_OBS_EVENT(
                "grade_block",
                {{"tests_applied",
                  applied_tests + block.first_test + block.num_tests},
                 {"newly_detected", block.newly_at_limit},
                 {"detected", cumulative_detected}});
          }
          FBT_OBS_EVENT("seed_accepted",
                        {{"sequence", result.sequences.size()},
                         {"segment", sequence.segments.size()},
                         {"seed", seed},
                         {"tests", candidate.tests.size()},
                         {"usable_cycles", candidate.usable_cycles},
                         {"newly_detected", fresh},
                         {"peak_swa", candidate.peak_swa}});
          applied_tests += candidate.tests.size();
          sequence.segments.push_back({seed, candidate.usable_cycles,
                                       candidate.tests.size(), fresh,
                                       candidate.peak_swa});
          sequence_peak = std::max(sequence_peak, candidate.peak_swa);
          for (auto& t : candidate.tests) {
            sequence_tests.push_back(std::move(t));
          }
        }
      }
      if (!accepted) {
        FBT_OBS_EVENT(
            "seed_rejected",
            {{"sequence", result.sequences.size()},
             {"segment", sequence.segments.size()},
             {"seed", seed},
             {"reason", candidate.tests.empty() ? "empty_candidate"
                                                : "no_new_detections"},
             {"usable_cycles", candidate.usable_cycles}});
      }
      if (accepted) {
        // The simulator already sits at the end of the usable prefix, where
        // the next segment continues the trajectory.
        FBT_OBS_COUNTER_ADD("bist.segments_accepted", 1);
        segment_failures = 0;
      } else {
        // Rewind the rejected prefix: the next seed starts from the same state.
        sim.restore(before_snap_);
        ++segment_failures;
      }
    }

    if (sequence.segments.empty()) {
      ++sequence_failures;  // P_seg(0) could not be selected
      FBT_OBS_EVENT("sequence_failed",
                    {{"consecutive_failures", sequence_failures}});
      continue;
    }
    sequence_failures = 0;
    FBT_OBS_COUNTER_ADD("bist.sequences_built", 1);
    FBT_OBS_EVENT("sequence_committed",
                  {{"sequence", result.sequences.size()},
                   {"segments", sequence.segments.size()},
                   {"tests", sequence_tests.size()},
                   {"detected", cumulative_detected},
                   {"peak_swa", sequence_peak}});
    detect_count = committed;
    result.nseg_max = std::max(result.nseg_max, sequence.segments.size());
    for (const auto& seg : sequence.segments) {
      result.lmax = std::max(result.lmax, seg.length);
      ++result.num_seeds;
    }
    result.peak_swa = std::max(result.peak_swa, sequence_peak);
    for (auto& t : sequence_tests) result.tests.push_back(std::move(t));
    result.sequences.push_back(std::move(sequence));
  }

  result.num_tests = result.tests.size();
  FBT_OBS_EVENT("construct_finished",
                {{"sequences", result.sequences.size()},
                 {"tests", result.num_tests},
                 {"seeds", result.num_seeds},
                 {"detected", cumulative_detected},
                 {"faults", faults.size()}});
  return result;
}

}  // namespace fbt
