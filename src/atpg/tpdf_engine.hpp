// Deterministic broadside test generation for transition path delay faults
// (dissertation Chapter 2).
//
// Five sub-procedures, applied in order of increasing cost:
//   1. deterministic ATPG for single transition faults (tests + proven
//      undetectable transition faults),
//   2. preprocessing: a TPDF is undetectable when a transition fault on its
//      path is undetectable or the merged necessary assignments conflict,
//   3. fault simulation of the transition-fault test set under TPDFs,
//   4. a dynamic-compaction-style heuristic that targets the path's
//      transition faults one after another (failure counters, primary /
//      secondary targets, "used" marking; Fig. 2.2),
//   5. a complete branch-and-bound over all the path's transition faults
//      simultaneously (Fig. 2.3).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "atpg/necessary.hpp"
#include "atpg/podem.hpp"
#include "fault/broadside_test.hpp"
#include "paths/path.hpp"

namespace fbt {

enum class TpdfPhase : std::uint8_t {
  kNone,          ///< not resolved
  kPreprocessing, ///< proven undetectable before any search
  kFaultSim,      ///< detected by a transition-fault test
  kHeuristic,     ///< detected by the dynamic-compaction heuristic
  kBranchBound,   ///< resolved by branch-and-bound (detected or undetectable)
};

enum class TpdfStatus : std::uint8_t { kDetected, kUndetectable, kAborted };

struct TpdfFaultReport {
  TpdfStatus status = TpdfStatus::kAborted;
  TpdfPhase phase = TpdfPhase::kNone;
};

struct TpdfEngineConfig {
  // Per-call PODEM budgets. The dissertation gives each fault 1 min of CPU
  // time in the heuristic and 2 min in branch-and-bound; here they are work
  // limits, so results never depend on the host (aborted counts shrink if
  // these are raised).
  PodemConfig tf_atpg{.backtrack_limit = 256};
  PodemConfig heuristic{.backtrack_limit = 400};
  PodemConfig branch_and_bound{.backtrack_limit = 4000};
  std::size_t heuristic_attempts = 3;  ///< passes of Fig. 2.2 per fault
  std::uint64_t rng_seed = 1;
};

struct TpdfRunReport {
  std::size_t num_faults = 0;
  std::size_t detected = 0;
  std::size_t undetectable = 0;
  std::size_t aborted = 0;
  /// Upper bound on detectable faults after preprocessing (Table 2.3 col 2).
  std::size_t detectable_upper_bound = 0;
  std::size_t detected_fsim = 0;
  std::size_t detected_heuristic = 0;
  std::size_t detected_bnb = 0;
  double seconds_tf_atpg = 0;
  double seconds_preprocessing = 0;
  double seconds_fsim = 0;
  double seconds_heuristic = 0;
  double seconds_bnb = 0;
  std::vector<TpdfFaultReport> per_fault;
  TestSet tests;  ///< transition-fault tests + TPDF tests found
};

class TpdfEngine {
 public:
  TpdfEngine(const Netlist& netlist, const TpdfEngineConfig& config);

  /// Runs the full five-phase procedure over `faults`. May be called
  /// repeatedly with further fault batches: phase 1 (transition-fault ATPG)
  /// runs lazily, only for transition faults on the batch's paths that were
  /// not processed by an earlier call, and its tests accumulate.
  TpdfRunReport run(const std::vector<PathDelayFault>& faults);

 private:
  enum class TfStatus : std::uint8_t {
    kUnknown,
    kHasTest,
    kUndetectable,
    kAborted,
  };

  /// Phase 1: ATPG for the not-yet-processed transition faults named by the
  /// batch's paths; appends to tf_tests_ and updates tf_status_.
  void run_transition_fault_atpg(
      const std::vector<std::vector<TransitionFault>>& per_path,
      TpdfRunReport& report);

  TfStatus& tf_status(const TransitionFault& tf) {
    return tf_status_[2 * tf.line + (tf.rising ? 0 : 1)];
  }
  bool tf_undetectable(const TransitionFault& tf) const {
    return tf_status_[2 * tf.line + (tf.rising ? 0 : 1)] ==
           TfStatus::kUndetectable;
  }

  /// Phase 4 core (Fig. 2.2): one full heuristic attempt cycle for a fault.
  /// Returns true when a test detecting all of `trs` was found (appended to
  /// report.tests).
  bool heuristic_attempts(const std::vector<TransitionFault>& trs,
                          const std::vector<Assignment>& preassign,
                          TpdfRunReport& report);

  const Netlist* netlist_;
  TpdfEngineConfig config_;
  Pcg32 rng_;
  TestSet tf_tests_;
  std::vector<TfStatus> tf_status_;  // 2 per node
  std::unique_ptr<PodemEngine> tf_engine_;
};

}  // namespace fbt
