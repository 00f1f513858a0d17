// Structural gate-level netlist on arena-backed structure-of-arrays storage.
//
// A Netlist is a DAG of gates plus D flip-flops. Flip-flop *outputs* are the
// present-state variables (pseudo primary inputs, PPIs); flip-flop *data
// inputs* are the next-state functions (pseudo primary outputs, PPOs). The
// combinational core is everything between {primary inputs, flip-flop outputs,
// constants} and {primary outputs, flip-flop data inputs}.
//
// Storage layout (see DESIGN.md "Arena netlist core"): there is no per-gate
// record. Each node is a row across flat columns -- a type byte, an
// offset/length span into one shared name arena, and a fanin span in a CSR
// built directly at add_gate time. Derived views (fanout CSR, topological
// evaluation order, levels, and the eval-order fanin CSR the simulators walk)
// are flat arrays built in a single counting-sort + Kahn pass at finalize().
// Name lookup goes through an open-addressing index of node ids (no
// unordered_map, no per-key heap nodes, heterogeneous string_view lookup).
//
// Construction is two-phase: build with add_* / set_dff_input / mark_output,
// then call finalize() once. finalize() validates the structure and builds the
// derived views that the simulators, ATPG, and STA consume.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/gate_type.hpp"

namespace fbt {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/// Read-only view of one node, assembled from the SoA columns on demand.
/// Cheap to copy; `name` and `fanins` point into the netlist's arenas and
/// stay valid for the netlist's lifetime.
struct Gate {
  GateType type = GateType::kBuf;
  std::string_view name;
  std::span<const NodeId> fanins;
};

/// One eval-order gate of the flattened simulation CSR: gate id, type, and
/// the span [first, first + count) into eval_fanin_ids(). Built at finalize()
/// and walked by every settle loop (16 bytes, cache-line friendly).
struct EvalEntry {
  NodeId node;
  GateType type;
  std::uint32_t first;  ///< index into Netlist::eval_fanin_ids()
  std::uint32_t count;
};

class Netlist {
 public:
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  // ---- construction ------------------------------------------------------

  /// Adds a primary input. Returns its node id.
  NodeId add_input(std::string_view name);

  /// Adds a D flip-flop with an unconnected data input (connect it later with
  /// set_dff_input). Returns the node id of the flip-flop output (Q).
  NodeId add_dff(std::string_view name);

  /// Connects the data input of flip-flop `dff` to node `d`.
  void set_dff_input(NodeId dff, NodeId d);

  /// Adds a combinational gate or constant. Returns its node id. The fanin
  /// span is copied into the netlist's CSR; the name into its arena.
  NodeId add_gate(GateType type, std::string_view name,
                  std::span<const NodeId> fanins);
  NodeId add_gate(GateType type, std::string_view name,
                  std::initializer_list<NodeId> fanins) {
    return add_gate(type, name,
                    std::span<const NodeId>(fanins.begin(), fanins.size()));
  }

  /// Marks `node` as a primary output. A node may be marked at most once.
  void mark_output(NodeId node);

  /// Validates the netlist and builds derived structures. Must be called
  /// exactly once, after which the netlist is immutable.
  void finalize();

  // ---- structure ---------------------------------------------------------

  const std::string& name() const { return name_; }
  std::size_t size() const { return types_.size(); }
  GateType type(NodeId id) const { return types_[id]; }

  /// Name of node `id` as a view into the shared name arena.
  std::string_view node_name(NodeId id) const {
    return {name_arena_.data() + name_off_[id],
            name_off_[id + 1] - name_off_[id]};
  }

  /// Fanin node ids of `id` as a view into the fanin CSR.
  std::span<const NodeId> fanins(NodeId id) const {
    return {fanin_ids_.data() + fanin_off_[id],
            fanin_off_[id + 1] - fanin_off_[id]};
  }

  /// Assembled per-node view (type, name, fanins).
  Gate gate(NodeId id) const { return {types_[id], node_name(id), fanins(id)}; }

  const std::vector<NodeId>& inputs() const { return inputs_; }
  const std::vector<NodeId>& outputs() const { return outputs_; }
  const std::vector<NodeId>& flops() const { return flops_; }

  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_outputs() const { return outputs_.size(); }
  std::size_t num_flops() const { return flops_.size(); }

  /// Data input (D) node of flip-flop `dff`.
  NodeId dff_input(NodeId dff) const;

  /// Node id by name; kNoNode when absent. Heterogeneous: accepts any
  /// string-ish argument without constructing a temporary std::string.
  NodeId find(std::string_view name) const;

  bool is_output(NodeId id) const { return output_flag_[id] != 0; }

  // ---- derived views (available after finalize) ---------------------------

  bool finalized() const { return finalized_; }

  /// Combinational gates in topological (fanin-before-fanout) order. Sources
  /// (inputs, flip-flops, constants) are not included.
  const std::vector<NodeId>& eval_order() const;

  /// Fanout node ids of `id` (gates that list `id` as a fanin, including
  /// flip-flops whose D input is `id`), as a view into the fanout CSR.
  std::span<const NodeId> fanouts(NodeId id) const;

  /// Logic level: 0 for sources, 1 + max(fanin levels) for gates.
  unsigned level(NodeId id) const;
  unsigned max_level() const { return max_level_; }

  /// Eval-order simulation CSR: one EvalEntry per combinational gate in
  /// eval_order() order, fanins laid out contiguously in eval_fanin_ids().
  std::span<const EvalEntry> eval_entries() const;
  const NodeId* eval_fanin_ids() const { return eval_fanins_.data(); }
  std::span<const NodeId> const0_nodes() const { return const0_nodes_; }
  std::span<const NodeId> const1_nodes() const { return const1_nodes_; }

  /// Number of circuit lines used for switching-activity percentages. Every
  /// node is one line (the dissertation counts gate outputs, inputs, and
  /// state variables).
  std::size_t num_lines() const { return types_.size(); }

  /// Count of combinational gates (excludes inputs, flops, constants).
  std::size_t num_gates() const { return eval_order_.size(); }

  /// Exact content bytes of the arena/SoA layout: type and flag columns, the
  /// name arena and offsets, fanin/fanout/eval CSRs, order/level arrays, and
  /// the open-addressing name index (resource telemetry). Counts content, not
  /// allocator slack, so the value is deterministic for a given circuit.
  std::uint64_t footprint_bytes() const;

  /// Bytes of the construction-side arenas alone (name arena + offsets +
  /// fanin CSR + type/flag columns + name index) -- what parse/generate
  /// allocates before finalize() adds the derived views. Published as the
  /// `netlist.arena_bytes` gauge.
  std::uint64_t arena_bytes() const;

 private:
  void check_mutable() const;
  NodeId add_node(GateType type, std::string_view name,
                  std::span<const NodeId> fanins);
  void index_insert(NodeId id);
  void index_grow();

  std::string name_;

  // Per-node SoA columns. name_off_/fanin_off_ hold size()+1 offsets, so the
  // spans of node i are [off[i], off[i+1]).
  std::vector<GateType> types_;
  std::vector<std::uint8_t> output_flag_;
  std::vector<std::uint32_t> name_off_{0};
  std::vector<char> name_arena_;
  std::vector<std::uint32_t> fanin_off_{0};
  std::vector<NodeId> fanin_ids_;

  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<NodeId> flops_;

  // Open-addressing name index: power-of-two slot array of node ids
  // (kNoNode = empty), linear probing, grown at ~0.7 load. Keys live in the
  // name arena; the index stores ids only.
  std::vector<NodeId> index_slots_;
  std::size_t index_used_ = 0;

  bool finalized_ = false;
  std::vector<NodeId> eval_order_;
  std::vector<std::uint32_t> fanout_off_;
  std::vector<NodeId> fanout_ids_;
  std::vector<unsigned> levels_;
  unsigned max_level_ = 0;

  std::vector<EvalEntry> eval_entries_;
  std::vector<NodeId> eval_fanins_;
  std::vector<NodeId> const0_nodes_;
  std::vector<NodeId> const1_nodes_;
};

}  // namespace fbt
