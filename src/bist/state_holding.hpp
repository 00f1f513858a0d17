// State-holding DFT for fault-coverage recovery (dissertation §4.5).
//
// Exclusive use of functional broadside tests can leave faults undetected
// (they require unreachable states). Holding a set of state variables every
// 2^h clock cycles during on-chip generation steers the circuit into
// unreachable -- but switching-bounded -- states that detect some of those
// faults. The set-selection procedure builds a full binary tree over the
// state variables (Fig. 4.12): the root holds all of them, children split
// their parent randomly in half; each node's detecting ability Det is
// measured by a cheap construction run (R = Q = 1) against the residual fault
// set Fr; a bottom-up pass decides where splitting beats holding together;
// finally each surviving non-overlapping subset is committed with a full
// construction run (R = 3, Q = 5) if it detects additional faults.
#pragma once

#include <cstdint>
#include <vector>

#include "bist/functional_bist.hpp"
#include "fault/fault.hpp"
#include "netlist/netlist.hpp"

namespace fbt {

namespace jobs {
class JobSystem;
}

/// Largest accepted tree height H. The tree has 2^(H+1) - 1 nodes and each
/// one costs a construction run, so H = 16 already means 131071 runs
/// (dissertation: H = 6); a taller tree is rejected with fbt::Error.
inline constexpr unsigned kMaxHoldTreeHeight = 16;

struct HoldSelectionConfig {
  unsigned tree_height = 4;      ///< H <= kMaxHoldTreeHeight (dissertation: 6)
  unsigned hold_period_log2 = 2; ///< h: hold every 4 cycles (§4.6)
  /// Construction parameters for Det evaluation (R = Q = 1 per §4.6).
  FunctionalBistConfig eval;
  /// Construction parameters for committed sets (R = 3, Q = 5 per §4.6).
  FunctionalBistConfig commit;
};

struct HoldSetRun {
  std::vector<std::size_t> flops;  ///< held state variables (flop indices)
  FunctionalBistResult result;
};

struct HoldSelectionResult {
  std::vector<HoldSetRun> selected;  ///< N_h committed sets, in order of use
  std::size_t total_held_flops = 0;  ///< N_bits
  std::size_t num_sequences = 0;     ///< N_multi over all sets
  std::size_t nseg_max = 0;
  std::size_t lmax = 0;
  std::size_t num_seeds = 0;
  std::size_t num_tests = 0;
  double peak_swa = 0.0;
  std::size_t newly_detected = 0;  ///< faults recovered from Fr
};

/// Runs set selection + committed generation. `detect_count` carries the
/// phase-1 (functional-only) detection state in and the final state out; the
/// residual set Fr is exactly the faults below the detect limit on entry.
/// The Det runs of the tree's nodes are independent and run on `pool`; the
/// result and the event journal do not depend on the pool's size.
HoldSelectionResult select_and_run_hold_sets(
    const Netlist& netlist, const TransitionFaultList& faults,
    std::vector<std::uint32_t>& detect_count, const HoldSelectionConfig& config,
    std::uint64_t rng_seed, jobs::JobSystem& pool);

/// Same, on the process-wide pool (jobs::global_jobs()).
HoldSelectionResult select_and_run_hold_sets(
    const Netlist& netlist, const TransitionFaultList& faults,
    std::vector<std::uint32_t>& detect_count, const HoldSelectionConfig& config,
    std::uint64_t rng_seed);

}  // namespace fbt
