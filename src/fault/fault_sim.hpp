// Bit-parallel broadside transition-fault simulator.
//
// Simulates 64 two-pattern tests at a time: frame 1 establishes launch values
// and the captured state s2; frame 2 checks stuck-at-initial-value detection
// via event-driven single-fault propagation to the primary outputs and the
// flip-flop D inputs. Supports fault dropping (n-detect) for test-set grading
// and a full per-test detection matrix for the transition-path-delay-fault
// engine of Chapter 2.
//
// Two propagation engines share the good-machine block evaluation:
//  * serial (the reference): one fault at a time, 64 tests per word
//    (BitSim::fault_propagate);
//  * PPSFP ("parallel-pattern single-fault propagation", packed): up to
//    PackedFaultProp::kLanes = 64 faults per word, one test at a time,
//    against the shared fault-free two-frame trace (PackedFaultProp).
// Detect counts, detection matrices, and first-detect provenance are
// bit-identical across the engines. The flow grades with PPSFP; the serial
// engine stays for its smaller footprint (see DESIGN.md "One grader per
// loop") and as the tests' oracle.
#pragma once

#include <cstdint>
#include <memory>
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
/// block any still-active fault was graded against -- so both engines
/// produce bit-identical provenance.
struct GradeProvenance {
  std::vector<FirstDetectHit> first_hits;
  std::vector<GradeBlockStat> blocks;
};

class BroadsideFaultSim {
 public:
  /// Propagation engine. Both give bit-identical results.
  enum class Engine {
    kSerial,  ///< one fault at a time, 64 tests per word (the reference)
    kPacked,  ///< PPSFP: up to PackedFaultProp::kLanes faults per word
  };

  explicit BroadsideFaultSim(const Netlist& netlist,
                             Engine engine = Engine::kSerial);

  /// Grades `tests` against `faults` with fault dropping: a fault whose
  /// detection count in `detect_count` reaches `detect_limit` is skipped.
  /// Updates `detect_count` in place and returns the number of faults whose
  /// count first reached `detect_limit` during this call. When `provenance`
  /// is non-null it is overwritten with this call's first-detect hits and
  /// per-block drop stats.
  std::size_t grade(std::span<const BroadsideTest> tests,
                    const TransitionFaultList& faults,
                    std::span<std::uint32_t> detect_count,
                    std::uint32_t detect_limit = 1,
                    GradeProvenance* provenance = nullptr);

  /// Per-test detection bits for every fault (no dropping). Row f holds
  /// ceil(tests/64) words; bit t of word t/64 is 1 when test t detects fault
  /// f. Intended for small test sets (Chapter-2 engine).
  std::vector<std::vector<std::uint64_t>> detection_matrix(
      std::span<const BroadsideTest> tests, const TransitionFaultList& faults);

  /// Single-query convenience: does `test` detect `fault`?
  bool detects(const BroadsideTest& test, const TransitionFault& fault);

  /// Bytes owned by the embedded simulators and frame buffers
  /// (resource telemetry).
  std::uint64_t footprint_bytes() const {
    std::uint64_t bytes =
        sizeof(*this) - sizeof(sim_) + sim_.footprint_bytes() +
        (v1_values_.size() + state2_.size() + pack_scratch_.size() +
         good2_values_.size() + launch_tx_.size() + needy_.size()) *
            sizeof(std::uint64_t) +
        (chunk_sites_.size() + site_internal_.size()) * sizeof(NodeId) +
        (chunk_fault_.size() + chunk_pos_.size() + block_hits_.size()) *
            sizeof(std::uint32_t);
    if (packed_ != nullptr) bytes += packed_->footprint_bytes();
    return bytes;
  }

 private:
  // Loads up to 64 tests into the simulator, evaluates both frames, and
  // leaves frame-1 values in v1_ and frame-2 values in the BitSim.
  void load_block(std::span<const BroadsideTest> tests, std::size_t first,
                  std::size_t count);

  // Detection mask of `fault` over the currently loaded block (serial
  // engine).
  std::uint64_t fault_mask(const TransitionFault& fault);

  // Copies the loaded block's frame-2 fault-free words out of the BitSim and
  // binds them to the packed kernel (PPSFP engine).
  void bind_packed_block();

  // Launch mask of `fault` over the currently loaded block: tests whose
  // fault-free trace makes the line transition the faulted way.
  std::uint64_t launch_mask(const TransitionFault& fault) const {
    const std::uint64_t w1 = v1_values_[fault.line];
    const std::uint64_t w2 = good2_values_[fault.line];
    return block_mask_ & (fault.rising ? (~w1 & w2) : (w1 & ~w2));
  }

  const Netlist* netlist_;
  BitSim sim_;
  std::vector<std::uint64_t> v1_values_;  // frame-1 value words per node
  std::vector<std::uint64_t> state2_;     // captured state words per flop
  std::vector<std::uint64_t> pack_scratch_;  // source-word packing scratch
  std::uint64_t block_mask_ = 0;          // valid-pattern bits of the block

  // PPSFP engine state (empty/null for the serial engine). Scheduling is
  // test-major: each block transposes the active faults' launch masks into
  // per-test lane words (launch_tx_), and every propagation packs up to 64
  // still-needy faults of one test into full lane words (fixed fault groups
  // would leave most lanes idle -- a typical test launches only a few
  // percent of any 64-fault group).
  std::unique_ptr<PackedFaultProp> packed_;
  std::vector<std::uint64_t> good2_values_;  // frame-2 value words per node
  std::vector<std::uint64_t> launch_tx_;  // [t * groups + g]: launch lanes
  std::vector<std::uint64_t> needy_;      // per active-list position: still
                                          // short of the limit this block
  std::vector<NodeId> site_internal_;     // per fault: internal site id
  std::vector<NodeId> chunk_sites_;          // per lane: fault site
  std::vector<std::uint32_t> chunk_fault_;   // per lane: fault index
  std::vector<std::uint32_t> chunk_pos_;     // per lane: active-list position
  std::vector<std::uint32_t> block_hits_;    // per fault: hits this block
};

}  // namespace fbt
