#include "netlist/netlist.hpp"

#include <algorithm>

#include "obs/instrument.hpp"
#include "util/require.hpp"
#include "util/timer.hpp"

namespace fbt {
namespace {

std::uint64_t hash_name(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

void Netlist::check_mutable() const {
  require(!finalized_, "Netlist", "cannot modify a finalized netlist");
}

void Netlist::index_grow() {
  const std::size_t slots = index_slots_.empty() ? 64 : index_slots_.size() * 2;
  index_slots_.assign(slots, kNoNode);
  const std::size_t mask = slots - 1;
  for (NodeId id = 0; id < types_.size(); ++id) {
    std::size_t h = hash_name(node_name(id)) & mask;
    while (index_slots_[h] != kNoNode) h = (h + 1) & mask;
    index_slots_[h] = id;
  }
}

void Netlist::index_insert(NodeId id) {
  // Grow at ~0.7 load so probe chains stay short; rehash walks the name
  // arena once, which is O(nodes) amortized over geometric doubling.
  if ((index_used_ + 1) * 10 >= index_slots_.size() * 7) index_grow();
  const std::size_t mask = index_slots_.size() - 1;
  std::size_t h = hash_name(node_name(id)) & mask;
  while (index_slots_[h] != kNoNode) h = (h + 1) & mask;
  index_slots_[h] = id;
  ++index_used_;
}

NodeId Netlist::find(std::string_view name) const {
  if (index_slots_.empty()) return kNoNode;
  const std::size_t mask = index_slots_.size() - 1;
  std::size_t h = hash_name(name) & mask;
  while (true) {
    const NodeId slot = index_slots_[h];
    if (slot == kNoNode) return kNoNode;
    if (node_name(slot) == name) return slot;
    h = (h + 1) & mask;
  }
}

NodeId Netlist::add_node(GateType type, std::string_view name,
                         std::span<const NodeId> fanins) {
  check_mutable();
  require(!name.empty(), "Netlist::add_node", "node name must be nonempty");
  require(find(name) == kNoNode, "Netlist::add_node",
          "duplicate node name '" + std::string(name) + "'");
  const auto id = static_cast<NodeId>(types_.size());
  types_.push_back(type);
  output_flag_.push_back(0);
  name_arena_.insert(name_arena_.end(), name.begin(), name.end());
  name_off_.push_back(static_cast<std::uint32_t>(name_arena_.size()));
  fanin_ids_.insert(fanin_ids_.end(), fanins.begin(), fanins.end());
  fanin_off_.push_back(static_cast<std::uint32_t>(fanin_ids_.size()));
  index_insert(id);
  return id;
}

NodeId Netlist::add_input(std::string_view name) {
  const NodeId id = add_node(GateType::kInput, name, {});
  inputs_.push_back(id);
  return id;
}

NodeId Netlist::add_dff(std::string_view name) {
  const NodeId placeholder[1] = {kNoNode};
  const NodeId id = add_node(GateType::kDff, name, placeholder);
  flops_.push_back(id);
  return id;
}

void Netlist::set_dff_input(NodeId dff, NodeId d) {
  check_mutable();
  require(dff < types_.size() && types_[dff] == GateType::kDff,
          "Netlist::set_dff_input", "node is not a flip-flop");
  require(d < types_.size(), "Netlist::set_dff_input", "invalid data input");
  fanin_ids_[fanin_off_[dff]] = d;
}

NodeId Netlist::add_gate(GateType type, std::string_view name,
                         std::span<const NodeId> fanins) {
  require(type != GateType::kInput && type != GateType::kDff,
          "Netlist::add_gate", "use add_input/add_dff for sources");
  for (const NodeId f : fanins) {
    require(f < types_.size(), "Netlist::add_gate",
            "fanin id out of range in gate '" + std::string(name) + "'");
  }
  switch (type) {
    case GateType::kBuf:
    case GateType::kNot:
      require(fanins.size() == 1, "Netlist::add_gate",
              "BUF/NOT require exactly 1 fanin ('" + std::string(name) + "')");
      break;
    case GateType::kConst0:
    case GateType::kConst1:
      require(fanins.empty(), "Netlist::add_gate",
              "constants take no fanins ('" + std::string(name) + "')");
      break;
    default:
      require(!fanins.empty(), "Netlist::add_gate",
              "gate requires at least 1 fanin ('" + std::string(name) + "')");
      break;
  }
  return add_node(type, name, fanins);
}

void Netlist::mark_output(NodeId node) {
  check_mutable();
  require(node < types_.size(), "Netlist::mark_output", "invalid node id");
  require(output_flag_[node] == 0, "Netlist::mark_output",
          "node '" + std::string(node_name(node)) +
              "' already marked as output");
  output_flag_[node] = 1;
  outputs_.push_back(node);
}

void Netlist::finalize() {
  check_mutable();
  const Timer timer;
  const auto n = static_cast<NodeId>(types_.size());

  // Every flip-flop must have a connected data input.
  for (const NodeId ff : flops_) {
    require(fanin_ids_[fanin_off_[ff]] != kNoNode, "Netlist::finalize",
            "flip-flop '" + std::string(node_name(ff)) +
                "' has no data input");
  }

  // Fanout CSR by counting sort: count per-driver edges, prefix-sum into
  // offsets, then fill in (node id, fanin position) order -- which reproduces
  // the append order the per-node fanout vectors used to have (ascending
  // consumer id, duplicates preserved).
  fanout_off_.assign(n + 1, 0);
  for (const NodeId f : fanin_ids_) ++fanout_off_[f + 1];
  for (NodeId id = 0; id < n; ++id) fanout_off_[id + 1] += fanout_off_[id];
  fanout_ids_.resize(fanin_ids_.size());
  std::vector<std::uint32_t> cursor(fanout_off_.begin(), fanout_off_.end() - 1);
  for (NodeId id = 0; id < n; ++id) {
    for (std::uint32_t k = fanin_off_[id]; k < fanin_off_[id + 1]; ++k) {
      fanout_ids_[cursor[fanin_ids_[k]]++] = id;
    }
  }

  // Kahn topological sort over combinational gates. Sources (inputs, flops,
  // constants) have level 0; the edge from a gate into a flip-flop's D pin
  // does not constrain the flip-flop (its value is a state variable).
  levels_.assign(n, 0);
  std::vector<unsigned> pending(n, 0);
  std::vector<NodeId> ready;
  std::size_t comb = 0;
  for (NodeId id = 0; id < n; ++id) {
    if (is_combinational(types_[id])) {
      pending[id] = fanin_off_[id + 1] - fanin_off_[id];
      ++comb;
    } else {
      ready.push_back(id);  // source
    }
  }
  eval_order_.clear();
  eval_order_.reserve(comb);
  std::size_t head = 0;
  while (head < ready.size()) {
    const NodeId id = ready[head++];
    if (is_combinational(types_[id])) {
      eval_order_.push_back(id);
      unsigned lvl = 0;
      for (std::uint32_t k = fanin_off_[id]; k < fanin_off_[id + 1]; ++k) {
        lvl = std::max(lvl, levels_[fanin_ids_[k]] + 1);
      }
      levels_[id] = lvl;
      max_level_ = std::max(max_level_, lvl);
    }
    for (std::uint32_t k = fanout_off_[id]; k < fanout_off_[id + 1]; ++k) {
      const NodeId out = fanout_ids_[k];
      if (!is_combinational(types_[out])) continue;  // flop D pins
      if (--pending[out] == 0) ready.push_back(out);
    }
  }
  require(eval_order_.size() == comb, "Netlist::finalize",
          "combinational cycle detected in '" + name_ + "'");

  // Eval-order simulation CSR (what every settle loop walks).
  eval_entries_.clear();
  eval_entries_.reserve(comb);
  eval_fanins_.clear();
  eval_fanins_.reserve(fanin_ids_.size());
  for (const NodeId id : eval_order_) {
    eval_entries_.push_back({id, types_[id],
                             static_cast<std::uint32_t>(eval_fanins_.size()),
                             fanin_off_[id + 1] - fanin_off_[id]});
    for (std::uint32_t k = fanin_off_[id]; k < fanin_off_[id + 1]; ++k) {
      eval_fanins_.push_back(fanin_ids_[k]);
    }
  }
  for (NodeId id = 0; id < n; ++id) {
    if (types_[id] == GateType::kConst0) const0_nodes_.push_back(id);
    if (types_[id] == GateType::kConst1) const1_nodes_.push_back(id);
  }

  finalized_ = true;
  FBT_OBS_GAUGE_SET("netlist.finalize_duration_ms", timer.ms());
  FBT_OBS_GAUGE_SET("netlist.arena_bytes", arena_bytes());
}

NodeId Netlist::dff_input(NodeId dff) const {
  require(dff < types_.size() && types_[dff] == GateType::kDff,
          "Netlist::dff_input", "node is not a flip-flop");
  return fanin_ids_[fanin_off_[dff]];
}

const std::vector<NodeId>& Netlist::eval_order() const {
  require(finalized_, "Netlist::eval_order", "netlist not finalized");
  return eval_order_;
}

std::span<const NodeId> Netlist::fanouts(NodeId id) const {
  require(finalized_, "Netlist::fanouts", "netlist not finalized");
  return {fanout_ids_.data() + fanout_off_[id],
          fanout_off_[id + 1] - fanout_off_[id]};
}

unsigned Netlist::level(NodeId id) const {
  require(finalized_, "Netlist::level", "netlist not finalized");
  return levels_[id];
}

std::span<const EvalEntry> Netlist::eval_entries() const {
  require(finalized_, "Netlist::eval_entries", "netlist not finalized");
  return eval_entries_;
}

std::uint64_t Netlist::arena_bytes() const {
  return types_.size() * sizeof(GateType) + output_flag_.size() +
         name_off_.size() * sizeof(std::uint32_t) + name_arena_.size() +
         fanin_off_.size() * sizeof(std::uint32_t) +
         fanin_ids_.size() * sizeof(NodeId) +
         index_slots_.size() * sizeof(NodeId);
}

std::uint64_t Netlist::footprint_bytes() const {
  std::uint64_t bytes = sizeof(*this) + name_.size() + arena_bytes();
  bytes += (inputs_.size() + outputs_.size() + flops_.size()) * sizeof(NodeId);
  bytes += eval_order_.size() * sizeof(NodeId);
  bytes += fanout_off_.size() * sizeof(std::uint32_t);
  bytes += fanout_ids_.size() * sizeof(NodeId);
  bytes += levels_.size() * sizeof(unsigned);
  bytes += eval_entries_.size() * sizeof(EvalEntry);
  bytes += (eval_fanins_.size() + const0_nodes_.size() + const1_nodes_.size()) *
           sizeof(NodeId);
  return bytes;
}

}  // namespace fbt
