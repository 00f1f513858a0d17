// 64-way bit-parallel combinational simulator.
//
// Each node holds one 64-bit word; bit k of every word belongs to pattern k.
// The fault simulator evaluates both frames of a 64-test block with eval()
// and binds the frame-2 words (values()) to the packed fault kernel.
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

  /// Every node's word, indexed by NodeId.
  std::span<const std::uint64_t> values() const { return values_; }

  /// Evaluates the full combinational core in topological order from the
  /// current source words.
  void eval();

  /// Writes the next-state words (flip-flop D values) into `next_state`,
  /// one word per flop in netlist().flops() order. Call after eval().
  void next_state(std::span<std::uint64_t> next_state) const;

  /// Bytes owned by the value array (resource telemetry).
  std::uint64_t footprint_bytes() const {
    return sizeof(*this) + values_.size() * sizeof(std::uint64_t);
  }

 private:
  const Netlist* netlist_;
  std::vector<std::uint64_t> values_;
};

}  // namespace fbt
