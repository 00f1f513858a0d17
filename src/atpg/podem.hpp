// PODEM-style deterministic broadside test generation over two time frames.
//
// Decisions are made only on the free inputs of the two-frame model (PI1,
// PI2, PPI1); after every decision the engine re-derives all values by
// three-valued simulation plus, per goal fault, a faulty frame-2 simulation
// with the fault site forced to its stuck-at-initial value. A goal fault is
// *detected* when its launch condition holds (binary initial value on the
// site in frame 1) and some observation point has a binary good/faulty
// difference; it is *impossible* when the launch condition is violated or no
// observation point can still differ. The same engine serves:
//
//  * single transition faults (§2.3.1),
//  * the dynamic-compaction heuristic (§2.3.4) -- goals targeted one at a
//    time with backtracking confined to decisions made for the current goal,
//  * the complete branch-and-bound procedure (§2.3.5) -- one goal set, full
//    backtracking across goals.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "atpg/two_frame.hpp"
#include "fault/broadside_test.hpp"
#include "fault/fault.hpp"
#include "sim/value.hpp"
#include "util/rng.hpp"

namespace fbt {

struct PodemConfig {
  std::size_t backtrack_limit = 4000;  ///< per generate / target call
  /// Decisions per generate / target call: the call aborts instead of making
  /// one more. Unbounded by default.
  std::size_t decision_limit = std::numeric_limits<std::size_t>::max();
  std::uint64_t rng_seed = 1;
  /// No-op that nothing reads: no clock decides a search. It exists only
  /// because perfbench.cpp assigns it, and is static so that no config
  /// carries it; delete it at the next benchmark change.
  static inline double time_limit_seconds = 0;
};

enum class PodemStatus : std::uint8_t { kDetected, kUndetectable, kAborted };

struct PodemOutcome {
  PodemStatus status = PodemStatus::kAborted;
  std::size_t backtracks = 0;
  std::size_t decisions = 0;
};

class PodemEngine {
 public:
  PodemEngine(const Netlist& netlist, const PodemConfig& config);

  /// Clears all assignments and goals.
  void reset();

  /// Adds fixed pre-assignments (e.g. stored input necessary assignments,
  /// §2.3.4/§2.3.5). Returns false when they conflict with current values.
  bool preassign(std::span<const Assignment> assignments);

  /// Solves for the simultaneous detection of every fault in `goals` on top
  /// of the current assignment. When `backtrack_into_earlier` is false the
  /// search never flips decisions that existed before this call (heuristic
  /// mode, §2.3.4), and kUndetectable then only means "failed under the
  /// current prefix"; with true it is a complete branch-and-bound (§2.3.5)
  /// and kUndetectable is a proof (relative to the pre-assignments).
  PodemOutcome solve(std::span<const TransitionFault> goals,
                     bool backtrack_into_earlier);

  /// Targets a single fault on top of the current assignment.
  PodemOutcome target(const TransitionFault& fault,
                      bool backtrack_into_earlier) {
    return solve(std::span(&fault, 1), backtrack_into_earlier);
  }

  /// Convenience: fresh single-fault generation with full backtracking.
  PodemOutcome generate(const TransitionFault& fault) {
    reset();
    return target(fault, /*backtrack_into_earlier=*/true);
  }

  /// Extracts a broadside test from the current assignment, filling
  /// unassigned inputs pseudo-randomly. Every goal detected so far remains
  /// detected under any fill (detection requires binary differences only).
  BroadsideTest extract_test();

  /// Current number of decisions on the stack (used by callers to track
  /// which decisions belong to which goal).
  std::size_t decision_depth() const { return decisions_.size(); }

 private:
  struct Decision {
    FrameNode input;
    Val3 value = Val3::kX;
    bool flipped = false;
  };

  enum class GoalState : std::uint8_t { kDetected, kImpossible, kPending };

  std::size_t idx(FrameNode fn) const {
    return static_cast<std::size_t>(fn.frame) * netlist_->size() + fn.node;
  }

  void simulate();
  GoalState goal_state(const TransitionFault& fault,
                       const std::vector<Val3>& faulty) const;
  /// Simulates frame 2 with `fault`'s site forced and returns the values.
  void simulate_faulty(const TransitionFault& fault,
                       std::vector<Val3>& out) const;

  /// Picks (input, value) advancing the goal; kNoNode input when stuck.
  std::pair<FrameNode, Val3> pick_objective(const TransitionFault& fault,
                                            const std::vector<Val3>& faulty);
  std::pair<FrameNode, Val3> backtrace(FrameNode node, Val3 want);

  const Netlist* netlist_;
  PodemConfig config_;
  Pcg32 rng_;

  std::vector<Val3> input_val_;  ///< free-input assignments (2 * size)
  std::vector<Val3> good_;       ///< simulated values (2 * size)
  std::vector<Val3> faulty_scratch_;
  std::vector<Decision> decisions_;
  std::vector<Assignment> fixed_;  ///< preassignments
};

}  // namespace fbt
