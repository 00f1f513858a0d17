// Fault-parallel broadside diff-word propagator (classic PPSFP), the
// kernel of BroadsideFaultSim.
//
// Bit k of every word belongs to fault lane k, and one event-driven pass
// propagates up to 64 faults' XOR-diff words through the combinational
// netlist for a single test, against a shared fault-free two-frame trace that
// is simulated once per 64-test block. A node's faulty word is reconstructed
// on the fly as broadcast(good bit) XOR diff, so only nodes inside some
// lane's fault cone are ever touched, and a lane is pruned the moment it
// reaches an observation point -- per-test detection is boolean, so the rest
// of that lane's cone is provably irrelevant (a serial propagator, whose word
// lanes are 64 tests of one fault, cannot prune this way: its full per-test
// mask feeds popcount / ctz). Detection at the default broadside observe set
// (primary outputs + flip-flop D inputs) is returned as a per-lane word,
// bit-identical to running the serial test oracle
// (tests/fault/serial_fault_sim.hpp) once per fault and reading the test's
// bit.
//
// Internally nodes are renumbered level-major, which collapses the event
// queue to one frontier bitmap scanned front to back: every fanout has a
// higher level than its driver, so internal ids are strictly increasing
// along any path and a single forward ctz scan drains events in topological
// order. An event push is one OR into the L1-resident bitmap (reconvergent
// duplicates merge for free) and cone-adjacent nodes share cache lines in
// the per-node record array. The fanin gather touches one 32-byte record per
// fanin (topology, good word, diff word) and is branchless: diff words of untouched
// nodes are kept at zero by resetting each propagation's touched set before
// returning (while those lines are still cache-hot), so
// faulty = broadcast(good bit) XOR diff unconditionally.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace fbt {

class PackedFaultProp {
 public:
  static constexpr std::size_t kLanes = 64;

  /// Lays out its own level-major copy of `netlist`.
  explicit PackedFaultProp(const Netlist& netlist);

  /// Binds the fault-free frame-2 trace of the current 64-test block: one
  /// word per node, bit t = test t's settled value. Copies the words into
  /// the per-node records; the span may be reused afterwards.
  void bind_good_trace(std::span<const std::uint64_t> good);

  /// Injects fault lane k (k < sites.size() <= 64) stuck at its launch-time
  /// initial value at node sites[k] and propagates all lanes' diff words for
  /// one test of the bound block. `active` bit k = lane k is launched by
  /// `test` (a non-launched lane is left fault-free: a fault without a
  /// launch has no effect). Returns the word of lanes whose effect
  /// reached an observation point.
  std::uint64_t propagate(std::span<const NodeId> sites, std::uint64_t active,
                          unsigned test);

  /// Internal (level-major) id of a netlist node. A caller that grades many
  /// chunks against the same fault list can translate each fault site once
  /// and use propagate_internal() instead of paying the lookup per call.
  NodeId internal_id(NodeId netlist_id) const { return inv_[netlist_id]; }

  /// propagate() with sites already translated by internal_id().
  std::uint64_t propagate_internal(std::span<const NodeId> sites,
                                   std::uint64_t active, unsigned test);

  /// Cumulative diff words evaluated by propagate() over this object's
  /// lifetime (pack-efficiency telemetry; the fault simulator reads deltas).
  std::uint64_t diff_words_propagated() const {
    return diff_words_propagated_;
  }

  /// Bytes owned by the CSR view and per-node lane/scratch arrays
  /// (resource telemetry).
  std::uint64_t footprint_bytes() const;

 private:
  /// Per-node record: gate metadata and the lane words, together in one
  /// 32-byte (half cache line) struct so evaluating a node touches a single
  /// line. One- and two-input gates keep their fanin ids inline with
  /// gate_truth_table() in `tt` (a one-input gate duplicates its fanin), so
  /// the gather issues both lane loads straight off this one record and
  /// eval_truth_table() evaluates them without a branch on the gate type.
  /// Wider gates fall back to a span in fanin_ids_ and `tt` holds the
  /// GateType for eval_gate. diff is zero for every node outside the running
  /// propagation's touched set (reset on every exit path via touched_), so
  /// the fanin gather needs no validity branch.
  struct Node {
    NodeId fan0 = 0;           ///< count==2: first fanin (internal id)
    NodeId fan1 = 0;           ///< count==2: second fanin (internal id)
    std::uint32_t first = 0;   ///< count>2: fanin span start in fanin_ids_
    std::uint16_t count = 0;   ///< fanin count (0: source; 1 folded into 2)
    std::uint8_t tt = 0;       ///< count==2: truth table; else GateType
    std::uint8_t observe = 0;  ///< PO or flop D input
    std::uint64_t good = 0;    ///< fault-free word of the bound block
    std::uint64_t diff = 0;    ///< faulty XOR good; zero when untouched
  };
  static_assert(sizeof(Node) == 32);

  const Netlist* netlist_;

  // Level-major internal id space: perm_[internal] = netlist id,
  // inv_[netlist id] = internal. All arrays below are internal-indexed and
  // all stored node ids (fanins, fanouts) are internal.
  std::vector<NodeId> perm_;
  std::vector<NodeId> inv_;

  std::vector<Node> nodes_;          ///< per-node records (level-major)
  std::vector<NodeId> fanin_ids_;    ///< >2-input fanin spans (internal ids)
  std::vector<NodeId> touched_;      ///< nodes whose diff is nonzero

  // Combinational-only fanout CSR: fanout_ids_[fanout_first_[id] ..
  // fanout_first_[id + 1]) are the combinational gates driven by node id.
  std::vector<std::uint32_t> fanout_first_;
  std::vector<NodeId> fanout_ids_;

  // Pending-event frontier, one bit per node. Bits are set at push (a
  // fanout's bit is always ahead of the scan cursor) and cleared as the
  // forward ctz scan pops them.
  std::vector<std::uint64_t> frontier_bits_;

  std::vector<std::uint64_t> inject_;  ///< forced lanes at fault sites
  // One bit per node: the node is a fault site of the current call, so its
  // inject_ word must be OR-ed over whatever its fanins evaluate to. Tiny
  // (L1-resident) so the per-eval test is a load the hot path already has
  // in cache; set during seeding, cleared on every exit path.
  std::vector<std::uint64_t> site_bits_;
  bool bound_ = false;  ///< bind_good_trace has been called

  std::uint64_t diff_words_propagated_ = 0;
};

}  // namespace fbt
