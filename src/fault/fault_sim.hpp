// Bit-parallel broadside transition-fault simulator (PPSFP).
//
// Grades two-pattern tests in blocks of 64. BroadsideBlock simulates a
// block's fault-free two-frame trace once, one test per bit: frame 1
// establishes launch values and the captured state s2, frame 2 the final
// values. A fault is detected when its stuck-at-initial-value effect in
// frame 2 reaches a primary output or a flip-flop D input. Propagation is
// PPSFP ("parallel-pattern single-fault propagation", packed): up to
// PackedFaultProp::kLanes = 64 faults per word, one test at a time, against
// the block's shared trace. Supports fault dropping (n-detect) for test-set
// grading and a full per-test detection matrix for the
// transition-path-delay-fault engine of Chapter 2.
//
// This is the only grader. The serial algorithm (one fault at a time, 64
// tests per word) is the tests' oracle, tests/fault/serial_fault_sim.hpp,
// against which detect counts, detection matrices and first-detect
// provenance are pinned bit-identical (see DESIGN.md "One grader per loop").
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "fault/broadside_test.hpp"
#include "fault/fault.hpp"
#include "sim/bitsim.hpp"
#include "sim/packed_faultprop.hpp"

namespace fbt {

/// First detection of one fault within a single grade() call: the fault went
/// from zero credit to detected, and `test` is the lowest-index test that
/// caught it.
struct FirstDetectHit {
  std::uint32_t fault = 0;  ///< index into the graded fault list
  std::uint32_t test = 0;   ///< index into the graded test span

  bool operator==(const FirstDetectHit&) const = default;
};

/// Drop statistics for one 64-test grading block.
struct GradeBlockStat {
  std::uint32_t first_test = 0;      ///< index of the block's first test
  std::uint32_t num_tests = 0;       ///< tests in the block (<= 64)
  std::uint32_t newly_at_limit = 0;  ///< faults reaching detect_limit here

  bool operator==(const GradeBlockStat&) const = default;
};

/// Optional provenance from one grade() call. Both vectors are canonical --
/// first_hits sorted by fault index, blocks in test order covering every
/// block any still-active fault was graded against -- so they do not depend
/// on the order in which faults are propagated.
struct GradeProvenance {
  std::vector<FirstDetectHit> first_hits;
  std::vector<GradeBlockStat> blocks;
};

/// Fault-free two-frame simulation of a block of up to 64 broadside tests,
/// bit t = test t: frame 1 from <s1, v1>, then frame 2 from <s2, v2>, where
/// s2 is the state captured by frame 1 or the test's s2 override. The tests'
/// bit rows are transposed into per-source words 64 at a time.
class BroadsideBlock {
 public:
  explicit BroadsideBlock(const Netlist& netlist);

  /// Loads tests[first, first + count), 1 <= count <= 64, and evaluates
  /// both frames. Throws fbt::Error when the set's widths do not match the
  /// netlist's flop and input counts.
  void load(TestSetView tests, std::size_t first, std::size_t count);

  /// Frame-2 fault-free words of the loaded block, one per node.
  std::span<const std::uint64_t> frame2() const { return sim_.values(); }

  /// Tests of the loaded block whose fault-free trace makes `fault`'s line
  /// transition the faulted way: STR 0 then 1, STF 1 then 0.
  std::uint64_t launch_mask(const TransitionFault& fault) const {
    const std::uint64_t w1 = v1_values_[fault.line];
    const std::uint64_t w2 = sim_.value(fault.line);
    return mask_ & (fault.rising ? (~w1 & w2) : (w1 & ~w2));
  }

  /// Bytes owned by the simulator and frame buffers (resource telemetry).
  std::uint64_t footprint_bytes() const {
    return sizeof(*this) - sizeof(sim_) + sim_.footprint_bytes() +
           (v1_values_.size() + state2_.size() + pack_scratch_.size()) *
               sizeof(std::uint64_t);
  }

 private:
  const Netlist* netlist_;
  BitSim sim_;                               // frame-2 values after load()
  std::vector<std::uint64_t> v1_values_;     // frame-1 value words per node
  std::vector<std::uint64_t> state2_;        // captured state words per flop
  std::vector<std::uint64_t> pack_scratch_;  // source-word packing scratch
  std::uint64_t mask_ = 0;                   // valid-test bits of the block
};

class BroadsideFaultSim {
 public:
  explicit BroadsideFaultSim(const Netlist& netlist);

  /// Grades `tests` against `faults` with fault dropping: a fault whose
  /// detection count in `detect_count` reaches `detect_limit` is skipped.
  /// Updates `detect_count` in place and returns the number of faults whose
  /// count first reached `detect_limit` during this call. When `provenance`
  /// is non-null it is overwritten with this call's first-detect hits and
  /// per-block drop stats.
  std::size_t grade(TestSetView tests, const TransitionFaultList& faults,
                    std::span<std::uint32_t> detect_count,
                    std::uint32_t detect_limit = 1,
                    GradeProvenance* provenance = nullptr);

  /// Per-test detection bits for every fault (no dropping). Row f holds
  /// ceil(tests/64) words; bit t of word t/64 is 1 when test t detects fault
  /// f. Intended for small test sets (Chapter-2 engine).
  std::vector<std::vector<std::uint64_t>> detection_matrix(
      TestSetView tests, const TransitionFaultList& faults);

  /// Single-query convenience: does `test` detect `fault`?
  bool detects(const BroadsideTest& test, const TransitionFault& fault);

  /// Bytes owned by the block simulator, the packed kernel and the
  /// scheduling buffers (resource telemetry).
  std::uint64_t footprint_bytes() const {
    return sizeof(*this) - sizeof(block_) - sizeof(packed_) +
           block_.footprint_bytes() + packed_.footprint_bytes() +
           (launch_tx_.size() + needy_.size()) * sizeof(std::uint64_t) +
           site_internal_.size() * sizeof(NodeId) +
           block_hits_.size() * sizeof(std::uint32_t);
  }

 private:
  struct PackStats {
    std::uint64_t groups = 0;        // chunks propagated
    std::uint64_t lanes_wasted = 0;  // idle lanes across those chunks
  };

  // Loads a block and binds its frame-2 trace to the packed kernel.
  void load_block(TestSetView tests, std::size_t first, std::size_t count);

  // Translates every fault site into the kernel's internal id space once,
  // so chunks hand propagate_internal() pre-resolved sites.
  void resolve_sites(const TransitionFaultList& faults);

  // Transposes the launch masks of faults `listed` over the loaded block's
  // `count` tests into launch_tx_; returns the number of 64-fault groups.
  std::size_t transpose_launches(const TransitionFaultList& faults,
                                 std::span<const std::uint32_t> listed,
                                 std::size_t count);

  // Packs test `t`'s launched lanes whose needy_ bit is set into chunks of
  // up to kLanes faults, propagates each chunk, and calls on_hit(pos) for
  // every detected list position pos.
  template <typename OnHit>
  void propagate_test(unsigned t, std::size_t ngroups,
                      std::span<const std::uint32_t> listed, PackStats& stats,
                      OnHit&& on_hit);

  BroadsideBlock block_;
  PackedFaultProp packed_;

  // Scheduling is test-major: each block transposes the listed faults'
  // launch masks into per-test lane words (launch_tx_), and every
  // propagation packs up to 64 still-needy faults of one test into full lane
  // words (fixed fault groups would leave most lanes idle -- a typical test
  // launches only a few percent of any 64-fault group).
  std::vector<std::uint64_t> launch_tx_;  // [t * groups + g]: launch lanes
  std::vector<std::uint64_t> needy_;      // per list position: still short
                                          // of the limit this block
  std::vector<NodeId> site_internal_;     // per fault: internal site id
  std::vector<std::uint32_t> block_hits_;  // per fault: hits this block
  // Per lane of the chunk being packed: internal site id, list position.
  std::array<NodeId, PackedFaultProp::kLanes> chunk_sites_{};
  std::array<std::uint32_t, PackedFaultProp::kLanes> chunk_pos_{};
};

}  // namespace fbt
