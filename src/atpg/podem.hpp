// PODEM-style deterministic broadside test generation over two time frames.
//
// Decisions are made only on the free inputs of the two-frame model (PI1,
// PI2, PPI1); after every decision the engine re-derives all values by
// three-valued simulation plus, per goal fault, a faulty frame-2 simulation
// with the fault site forced to its stuck-at-initial value. Both are
// event-driven: the good machine re-evaluates only the fanout of the sources
// that changed since the last simulation (a flip first restores the values
// from before the flipped decision off an undo trail), and a faulty frame is
// the good frame 2 plus the fault site's difference cone, overlaid in place
// and then restored (DESIGN.md, "PODEM simulation"). A goal fault is
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

  /// Free-input values of both frames, indexed frame * size() + node (kX
  /// where unassigned and on every node that is not a free input).
  std::span<const Val3> assignment() const { return input_val_; }

  /// Good-machine values of `frame` as of the last simulation; after a
  /// kDetected outcome, the values under assignment().
  std::span<const Val3> values(Frame frame) const {
    return std::span(good_).subspan(
        static_cast<std::size_t>(frame) * netlist_->size(), netlist_->size());
  }

  /// Frame-2 values of the circuit with `fault`'s site forced, derived from
  /// values() the way solve() derives a goal's faulty frame. The span stays
  /// valid until the next call into the engine.
  std::span<const Val3> faulty_frame(const TransitionFault& fault);

  /// Entries on the undo trail of good-frame writes. reset() empties it, so
  /// it holds at most the writes since the last reset().
  std::size_t trail_size() const { return trail_.size(); }

 private:
  struct Decision {
    FrameNode input;
    Val3 value = Val3::kX;
    bool flipped = false;
    std::size_t mark = 0;  ///< trail_.size() when the decision was pushed
  };

  /// One gate of the simulation loops, by eval-order position.
  struct Gate {
    /// Three-valued truth table of a 1- to 3-input gate: bits 2i..2i+1 hold
    /// the output Val3 for i = 9 * a + 3 * b + c, where a, b and c are the
    /// values of in[0], in[1] and in[2]. 0 for wider gates (no table is 0:
    /// all-X fanins give X).
    std::uint64_t table = 0;
    NodeId in[3] = {};  ///< fanins 0, min(1, count - 1) and count - 1
    NodeId node = kNoNode;
    std::uint32_t level = 0;
    std::uint32_t queued = 0;  ///< 1 while scheduled
  };

  /// A good-frame value before a write: good_[index] was `old`.
  struct TrailEntry {
    std::uint32_t index;
    Val3 old;
  };

  /// A node of a goal's difference cone with its good and faulty frame-2
  /// values (they differ).
  struct DiffEntry {
    NodeId node;
    Val3 good;
    Val3 faulty;
  };

  enum class GoalState : std::uint8_t { kDetected, kImpossible, kPending };

  std::size_t idx(FrameNode fn) const {
    return static_cast<std::size_t>(fn.frame) * netlist_->size() + fn.node;
  }

  /// Brings good_ up to date with input_val_: sets the sources of each
  /// frame that changed and propagates from them.
  void simulate();
  /// Sets source `id` of the good frame at `base` to `v`, trailing the
  /// write and scheduling its fanout on a change.
  void set_source(std::size_t base, NodeId id, Val3 v);
  void schedule_fanouts(NodeId id);
  /// Evaluates the scheduled gates of the good frame at `base` in level
  /// order; a gate whose value changes schedules its fanout. Good writes go
  /// to the trail; faulty ones (kFaulty, frame 2 only) to `diff`.
  template <bool kFaulty>
  void propagate(std::size_t base, std::vector<DiffEntry>* diff);
  /// Restores good_ to its values when the trail held `mark` entries.
  void unwind(std::size_t mark);

  /// True when `fault`'s launch condition fails in the good frame 1.
  bool launch_fails(const TransitionFault& fault) const;
  /// State of a goal whose launch condition does not fail, given its
  /// difference cone.
  GoalState goal_state(const TransitionFault& fault,
                       const std::vector<DiffEntry>& diff) const;
  /// Forces `fault`'s site in the good frame 2, propagates, records the
  /// difference cone into `diff` and restores the good values.
  void simulate_faulty(const TransitionFault& fault,
                       std::vector<DiffEntry>& diff);

  /// Picks (input, value) advancing the goal; kNoNode input when stuck.
  std::pair<FrameNode, Val3> pick_objective(const TransitionFault& fault,
                                            const std::vector<DiffEntry>& diff);
  std::pair<FrameNode, Val3> backtrace(FrameNode node, Val3 want);

  const Netlist* netlist_;
  PodemConfig config_;
  Pcg32 rng_;

  // Structure the simulation loops read, precomputed per engine. Gates are
  // addressed by their eval-order position p (netlist.eval_entries()[p]).
  const EvalEntry* entries_ = nullptr;
  const NodeId* entry_fanins_ = nullptr;
  std::vector<Gate> gates_;
  std::vector<NodeId> dff_input_;          ///< D input of flops()[i]
  std::vector<NodeId> observe_;            ///< outputs, then D inputs
  std::vector<std::uint8_t> observed_;     ///< per node: in observe_
  std::vector<std::uint32_t> fanout_off_;  ///< per node: its gate fanouts,
  std::vector<std::uint32_t> fanout_pos_;  ///< as positions (no flop D pins)

  // Event queue: the gates scheduled on level l sit in
  // queue_[level_begin_[l], level_end_[l]); scheduled levels are [lo_, hi_].
  std::vector<std::uint32_t> queue_;
  std::vector<std::uint32_t> level_begin_;
  std::vector<std::uint32_t> level_end_;
  std::uint32_t lo_ = 0;
  std::uint32_t hi_ = 0;
  // Added to the counters once per solve.
  std::uint64_t gate_evals_ = 0;
  std::uint64_t faulty_gate_evals_ = 0;

  std::vector<Val3> input_val_;  ///< free-input assignments (2 * size)
  std::vector<Val3> good_;       ///< simulated values (2 * size)
  std::vector<TrailEntry> trail_;
  bool x_observed_ = false;  ///< some observation point of good_'s frame 2 is X
  // Per-goal buffers of solve(), kept across calls.
  std::vector<std::vector<DiffEntry>> diff_;  ///< difference cones
  std::vector<std::size_t> detected_depth_;
  std::vector<Decision> decisions_;
  std::vector<Val3> faulty_frame_;  ///< faulty_frame()'s result
};

}  // namespace fbt
