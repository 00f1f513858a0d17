// Built-in generation of functional broadside tests (dissertation §4.3-§4.5;
// the target paper's method plus its constrained and state-holding
// extensions).
//
// The circuit is initialized into the reachable all-0 state. The on-chip TPG
// applies pseudo-random primary-input sequences in functional mode; every two
// consecutive clock cycles define a functional broadside test
// t(i) = <s(i), p(i), s(i+1), p(i+1)> (q = 1). Primary-input constraints are
// honoured by bounding every cycle's switching activity with SWA_func and
// cutting each sequence into multi-segment form (Fig. 4.9): a new LFSR seed
// is loaded whenever the bound would be violated, with the circuit's state
// held across the reseed so the next segment continues the same trajectory.
// Optional state holding (§4.5) gates the clocks of a chosen set of state
// variables every 2^h cycles, steering the circuit into unreachable states to
// recover coverage lost to the functional restriction.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bist/signal_transitions.hpp"
#include "bist/tpg.hpp"
#include "fault/broadside_test.hpp"
#include "fault/fault.hpp"
#include "netlist/flat_fanins.hpp"
#include "netlist/netlist.hpp"
#include "sim/seqsim.hpp"
#include "util/rng.hpp"

namespace fbt {

namespace jobs {
class JobSystem;
}

struct SegmentRecord {
  std::uint32_t seed = 0;    ///< LFSR seed that generated the segment
  std::size_t length = 0;    ///< applied cycles (even)
  std::size_t num_tests = 0; ///< length / 2
  std::size_t newly_detected = 0;  ///< faults this segment's tests retired
  double peak_swa = 0.0;     ///< peak SWA % over the segment's cycles
};

/// One multi-segment primary input sequence P_multi (§4.4).
struct SequenceRecord {
  std::vector<SegmentRecord> segments;
};

struct FunctionalBistConfig {
  TpgConfig tpg;
  std::size_t segment_length = 2000;      ///< L (must be even)
  std::size_t max_segment_failures = 3;   ///< R: consecutive failed seeds
  std::size_t max_sequence_failures = 5;  ///< Q: consecutive failed sequences
  /// SWA_func as a percentage of circuit lines. Ignored when bounded=false
  /// (the unconstrained "buffers" configuration of Table 4.3).
  double swa_bound_percent = 100.0;
  bool bounded = true;
  /// Optional signal-transition-pattern bound (§5.1, ref [90]): when set
  /// (and bounded), a cycle is admissible only if its pattern of signal
  /// transitions is a subset of a functionally observed one -- strictly
  /// stronger than the SWA bound. Not owned; must outlive the generator.
  const class TransitionPatternStore* pattern_store = nullptr;
  std::uint64_t rng_seed = 1;
  std::uint32_t detect_limit = 1;  ///< n-detect threshold for "new" faults
  /// No-ops, kept only so existing callers that assign them still compile:
  /// candidate seeds are evaluated one at a time, and every candidate is
  /// graded by one PPSFP grader (64 fault lanes per word).
  std::size_t num_threads = 1;
  std::size_t speculation_lanes = 64;
  std::size_t fault_pack_width = 64;

  /// State holding (§4.5): when hold_period_log2 = h >= 1, the flops listed
  /// in hold_set keep their values on every transition out of a cycle whose
  /// within-segment index is divisible by 2^h. Empty hold_set disables it.
  unsigned hold_period_log2 = 0;
  std::vector<std::size_t> hold_set;
};

/// Provenance of one fault's first detection during run(): which committed
/// segment (and which applied test within the construction stream) first
/// caught it. Faults that entered run() already detected, or were never
/// detected, keep the -1 sentinels. Test indices refer to the construction
/// order of the applied stream, before any sequence reduction.
struct FaultFirstDetect {
  std::int32_t sequence = -1;  ///< committed-sequence index
  std::int32_t segment = -1;   ///< segment index within that sequence
  std::int64_t test = -1;      ///< applied-test index at construction time
  std::uint32_t seed = 0;      ///< LFSR seed of the detecting segment

  bool operator==(const FaultFirstDetect&) const = default;
};

struct FunctionalBistResult {
  std::vector<SequenceRecord> sequences;
  TestSet tests;               ///< all applied tests, in application order
  std::size_t num_seeds = 0;   ///< total segments (one seed per segment)
  std::size_t num_tests = 0;
  std::size_t nseg_max = 0;    ///< N_segmax: most segments in one sequence
  std::size_t lmax = 0;        ///< L_max: longest segment
  double peak_swa = 0.0;       ///< peak SWA % over all applied cycles
  std::size_t newly_detected = 0;
  /// One entry per fault: first-detect attribution.
  std::vector<FaultFirstDetect> first_detect;
};

class FunctionalBistGenerator {
 public:
  /// `flat` and `jobs` are ignored; they remain only so existing callers
  /// that pass them still compile.
  FunctionalBistGenerator(const Netlist& netlist,
                          const FunctionalBistConfig& config,
                          std::shared_ptr<const FlatFanins> flat = nullptr,
                          jobs::JobSystem* jobs = nullptr);

  const Tpg& tpg() const { return tpg_; }

  /// Runs the construction procedure. `detect_count` (one entry per fault in
  /// `faults`) carries detection credit in and out: faults already at the
  /// detect limit are not chased, and detections by committed segments are
  /// added. Returns the committed sequences/tests and statistics.
  FunctionalBistResult run(const TransitionFaultList& faults,
                           std::vector<std::uint32_t>& detect_count);

  /// run() without its test set: the same construction, detection credit
  /// and event journal, but each accepted segment's tests are dropped once
  /// graded and no first-detect attribution is kept. Returns the number of
  /// newly detected faults (run().newly_detected). For callers that only
  /// score a configuration, such as the Det measure of state holding.
  std::size_t count_new_detections(const TransitionFaultList& faults,
                                   std::vector<std::uint32_t>& detect_count);

 private:
  /// The construction loop of run() and count_new_detections(); with
  /// `keep_tests` false, result.tests and result.first_detect stay empty.
  FunctionalBistResult construct(const TransitionFaultList& faults,
                                 std::vector<std::uint32_t>& detect_count,
                                 bool keep_tests);

  /// One evaluated candidate segment: the usable (SWA-clean, even-length)
  /// prefix length, the number of broadside tests extracted from it, and the
  /// peak SWA over the prefix.
  struct CandidateSegment {
    std::size_t usable_cycles = 0;
    std::size_t num_tests = 0;
    double peak_swa = 0.0;
  };

  /// Evaluates one candidate segment from the simulator's current state and
  /// appends its tests to `tests`; the simulator is left positioned at the
  /// end of the usable prefix.
  CandidateSegment evaluate_candidate(SeqSim& sim, std::uint32_t seed,
                                      TestSet& tests);

  const Netlist* netlist_;
  FunctionalBistConfig config_;
  Tpg tpg_;
  Pcg32 rng_;
  std::vector<std::uint8_t> hold_mask_;  ///< per flop; empty when no holding

  // Scratch reused across candidate evaluations (heap-churn control).
  std::vector<std::uint8_t> pending_v1_;  ///< v1 of the open test
  std::vector<std::uint8_t> vec_scratch_;
  std::vector<std::uint8_t> launch_state_;
  std::vector<std::uint8_t> mid_state_;
  std::vector<double> swa_trace_;
  SeqSim::Snapshot even_snap_;    ///< rolling even-boundary snapshot pool
  SeqSim::Snapshot before_snap_;  ///< pre-candidate snapshot pool
};

}  // namespace fbt
