// 64-way bit-parallel combinational simulator.
//
// Each node holds one 64-bit word; bit k of every word belongs to pattern k.
// The fault simulator uses eval() for fault-free values and fault_propagate()
// for event-driven single-fault propagation over the same pattern block.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace fbt {

class BitSim {
 public:
  explicit BitSim(const Netlist& netlist);

  const Netlist& netlist() const { return *netlist_; }

  /// Sets the pattern word of a source (input, flip-flop, or any node --
  /// combinational nodes are overwritten by the next eval()).
  void set_value(NodeId id, std::uint64_t word) { values_[id] = word; }

  std::uint64_t value(NodeId id) const { return values_[id]; }

  /// Evaluates the full combinational core in topological order from the
  /// current source words.
  void eval();

  /// Writes the next-state words (flip-flop D values) into `next_state`,
  /// one word per flop in netlist().flops() order. Call after eval().
  void next_state(std::span<std::uint64_t> next_state) const;

  /// Marks the observation points used by fault_propagate(): all primary
  /// outputs plus all flip-flop D inputs (broadside capture points).
  void use_default_observation_points();

  /// Replaces the observation-point set.
  void set_observation_points(std::span<const NodeId> points);

  /// Event-driven propagation of a forced word at `site` through its fanout
  /// cone, on top of the current eval() result (which is left untouched).
  /// Returns the pattern mask on which any observation point differs from its
  /// fault-free value.
  std::uint64_t fault_propagate(NodeId site, std::uint64_t faulty_word);

  /// Bytes owned by the value/scratch arrays (resource telemetry).
  std::uint64_t footprint_bytes() const {
    std::uint64_t bytes =
        sizeof(*this) +
        (values_.size() + faulty_.size()) * sizeof(std::uint64_t) +
        (stamp_.size() + queued_stamp_.size()) * sizeof(std::uint32_t) +
        observe_.size() * sizeof(std::uint8_t) +
        level_queue_.size() * sizeof(std::vector<NodeId>);
    for (const std::vector<NodeId>& q : level_queue_) {
      bytes += q.size() * sizeof(NodeId);
    }
    return bytes;
  }

 private:
  std::uint64_t faulty_value(NodeId id) const {
    return stamp_[id] == current_stamp_ ? faulty_[id] : values_[id];
  }
  void enqueue_fanouts(NodeId id);

  const Netlist* netlist_;
  std::vector<std::uint64_t> values_;

  // Fault propagation scratch.
  std::vector<std::uint64_t> faulty_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t current_stamp_ = 0;
  std::vector<std::uint8_t> observe_;
  std::vector<std::vector<NodeId>> level_queue_;
  std::vector<std::uint32_t> queued_stamp_;
};

}  // namespace fbt
