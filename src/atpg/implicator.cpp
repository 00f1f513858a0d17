#include "atpg/implicator.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace fbt {

Implicator::Implicator(const Netlist& netlist) : netlist_(&netlist) {
  require(netlist.finalized(), "Implicator", "netlist must be finalized");
  values_.assign(2 * netlist.size(), Val3::kX);
}

void Implicator::clear() {
  std::fill(values_.begin(), values_.end(), Val3::kX);
  trail_.clear();
  worklist_.clear();
}

bool Implicator::set_value(std::size_t idx, Val3 v) {
  if (v == Val3::kX) return true;
  if (values_[idx] == v) return true;
  if (values_[idx] != Val3::kX) return false;  // conflict
  values_[idx] = v;
  trail_.push_back(idx);
  worklist_.push_back(idx);
  return true;
}

void Implicator::rollback(Checkpoint mark) {
  require(mark <= trail_.size(), "Implicator::rollback", "bad checkpoint");
  while (trail_.size() > mark) {
    values_[trail_.back()] = Val3::kX;
    trail_.pop_back();
  }
  worklist_.clear();
}

bool Implicator::imply_gate(Frame frame, NodeId gate) {
  const Gate& g = netlist_->gate(gate);
  const std::size_t out_idx = index({frame, gate});

  // Forward: evaluate from inputs (indexed into this frame's value plane).
  {
    const Val3* plane =
        values_.data() + static_cast<std::size_t>(frame) * netlist_->size();
    const Val3 computed =
        eval_gate<Val3>(g.type, g.fanins.size(),
                        [&](std::size_t k) { return plane[g.fanins[k]]; });
    if (!set_value(out_idx, computed)) return false;
  }

  // Backward: force inputs from a known output.
  const Val3 out = values_[out_idx];
  if (out == Val3::kX) return true;
  const bool out1 = out == Val3::k1;

  switch (g.type) {
    case GateType::kBuf:
      return set_value(index({frame, g.fanins[0]}), out);
    case GateType::kNot:
      return set_value(index({frame, g.fanins[0]}), not3(out));
    case GateType::kAnd:
    case GateType::kNand:
    case GateType::kOr:
    case GateType::kNor: {
      const bool c = controlling_value(g.type);       // controlling input value
      const bool inv = inverts(g.type);
      const bool all_nc_out = !c != inv;              // output when no input = c
      if (out1 == all_nc_out) {
        // Every input must be non-controlling.
        for (const NodeId f : g.fanins) {
          if (!set_value(index({frame, f}), c ? Val3::k0 : Val3::k1)) {
            return false;
          }
        }
      } else {
        // At least one input is controlling: force it when unique.
        std::size_t unknown = 0;
        NodeId candidate = kNoNode;
        for (const NodeId f : g.fanins) {
          const Val3 v = values_[index({frame, f})];
          if (v == Val3::kX) {
            ++unknown;
            candidate = f;
          } else if ((v == Val3::k1) == c) {
            return true;  // already justified by a controlling input
          }
        }
        if (unknown == 1) {
          return set_value(index({frame, candidate}),
                           c ? Val3::k1 : Val3::k0);
        }
      }
      return true;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      std::size_t unknown = 0;
      NodeId candidate = kNoNode;
      bool parity = g.type == GateType::kXnor;  // fold output inversion
      for (const NodeId f : g.fanins) {
        const Val3 v = values_[index({frame, f})];
        if (v == Val3::kX) {
          ++unknown;
          candidate = f;
        } else {
          parity ^= (v == Val3::k1);
        }
      }
      if (unknown == 1) {
        const bool needed = parity != out1;
        return set_value(index({frame, candidate}),
                         needed ? Val3::k1 : Val3::k0);
      }
      return true;
    }
    default:
      return true;
  }
}

bool Implicator::imply_linkage(NodeId flop) {
  const std::size_t q2 = index({Frame::k2, flop});
  const std::size_t d1 = index({Frame::k1, netlist_->dff_input(flop)});
  if (values_[q2] != Val3::kX && !set_value(d1, values_[q2])) return false;
  if (values_[d1] != Val3::kX && !set_value(q2, values_[d1])) return false;
  return true;
}

bool Implicator::propagate() {
  while (!worklist_.empty()) {
    const std::size_t idx = worklist_.back();
    worklist_.pop_back();
    const FrameNode fn = coord(idx);
    const Gate& g = netlist_->gate(fn.node);

    // Backward within the node's own definition.
    if (is_combinational(g.type)) {
      if (!imply_gate(fn.frame, fn.node)) return false;
    }
    // Linkage when a frame-2 state variable became known.
    if (g.type == GateType::kDff && fn.frame == Frame::k2) {
      if (!imply_linkage(fn.node)) return false;
    }
    // Fanouts: forward/backward through driven gates; linkage through driven
    // flip-flop D pins (frame 1 only -- the frame-2 capture is past the test).
    for (const NodeId out : netlist_->fanouts(fn.node)) {
      if (netlist_->type(out) == GateType::kDff) {
        if (fn.frame == Frame::k1 && !imply_linkage(out)) return false;
      } else if (!imply_gate(fn.frame, out)) {
        return false;
      }
    }
  }
  return true;
}

bool Implicator::assign(FrameNode fn, Val3 value) {
  require(value != Val3::kX, "Implicator::assign", "cannot assign X");
  if (!set_value(index(fn), value)) return false;
  return propagate();
}

bool Implicator::assign_all(std::span<const Assignment> batch) {
  for (const Assignment& a : batch) {
    if (!assign(a)) return false;
  }
  return true;
}

std::vector<Assignment> Implicator::specified() const {
  std::vector<Assignment> result;
  for (std::size_t idx = 0; idx < values_.size(); ++idx) {
    if (values_[idx] == Val3::kX) continue;
    result.push_back({coord(idx), values_[idx] == Val3::k1});
  }
  return result;
}

std::vector<Assignment> Implicator::specified_inputs() const {
  std::vector<Assignment> result;
  for (std::size_t idx = 0; idx < values_.size(); ++idx) {
    if (values_[idx] == Val3::kX) continue;
    const FrameNode fn = coord(idx);
    if (!is_free_input(*netlist_, fn)) continue;
    result.push_back({fn, values_[idx] == Val3::k1});
  }
  return result;
}

}  // namespace fbt
