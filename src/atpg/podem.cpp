#include "atpg/podem.hpp"

#include <algorithm>

#include "obs/instrument.hpp"
#include "util/require.hpp"

namespace fbt {

PodemEngine::PodemEngine(const Netlist& netlist, const PodemConfig& config)
    : netlist_(&netlist),
      config_(config),
      rng_(config.rng_seed, 0x2545f4914f6cdd1dULL) {
  require(netlist.finalized(), "PodemEngine", "netlist must be finalized");
  input_val_.assign(2 * netlist.size(), Val3::kX);
  good_.assign(2 * netlist.size(), Val3::kX);
  faulty_scratch_.assign(netlist.size(), Val3::kX);
}

void PodemEngine::reset() {
  std::fill(input_val_.begin(), input_val_.end(), Val3::kX);
  decisions_.clear();
  fixed_.clear();
}

bool PodemEngine::preassign(std::span<const Assignment> assignments) {
  for (const Assignment& a : assignments) {
    require(is_free_input(*netlist_, a.where), "PodemEngine::preassign",
            "pre-assignments must be on free inputs");
    const Val3 v = a.value ? Val3::k1 : Val3::k0;
    Val3& slot = input_val_[idx(a.where)];
    if (slot != Val3::kX && slot != v) return false;
    slot = v;
    fixed_.push_back(a);
  }
  return true;
}

void PodemEngine::simulate() {
  const Netlist& nl = *netlist_;
  for (int f = 0; f < 2; ++f) {
    const auto frame = static_cast<Frame>(f);
    Val3* vals = good_.data() + static_cast<std::size_t>(frame) * nl.size();
    // Sources.
    for (const NodeId pi : nl.inputs()) {
      vals[pi] = input_val_[idx({frame, pi})];
    }
    for (const NodeId ff : nl.flops()) {
      if (frame == Frame::k1) {
        vals[ff] = input_val_[idx({frame, ff})];
      } else {
        vals[ff] = good_[idx({Frame::k1, nl.dff_input(ff)})];
      }
    }
    settle(nl, vals);
  }
}

void PodemEngine::simulate_faulty(const TransitionFault& fault,
                                  std::vector<Val3>& out) const {
  const Netlist& nl = *netlist_;
  out.assign(nl.size(), Val3::kX);
  const Val3 forced = fault.rising ? Val3::k0 : Val3::k1;
  // Frame-2 sources (the faulty circuit shares frame 1 with the good one).
  for (const NodeId pi : nl.inputs()) out[pi] = good_[idx({Frame::k2, pi})];
  for (const NodeId ff : nl.flops()) out[ff] = good_[idx({Frame::k2, ff})];
  if (!is_combinational(nl.type(fault.line))) out[fault.line] = forced;
  settle(nl, out.data(), [&](NodeId id) {
    if (id == fault.line) out[id] = forced;
  });
}

PodemEngine::GoalState PodemEngine::goal_state(
    const TransitionFault& fault, const std::vector<Val3>& faulty) const {
  const Val3 init = fault.rising ? Val3::k0 : Val3::k1;
  const Val3 launch = good_[idx({Frame::k1, fault.line})];
  if (launch != Val3::kX && launch != init) return GoalState::kImpossible;

  bool any_binary_diff = false;
  bool any_maybe_diff = false;
  auto inspect = [&](NodeId obs) {
    const Val3 g = good_[idx({Frame::k2, obs})];
    const Val3 f = faulty[obs];
    if (g != Val3::kX && f != Val3::kX) {
      if (g != f) {
        any_binary_diff = true;
        any_maybe_diff = true;
      }
    } else {
      any_maybe_diff = true;
    }
  };
  for (const NodeId po : netlist_->outputs()) inspect(po);
  for (const NodeId ff : netlist_->flops()) inspect(netlist_->dff_input(ff));

  if (launch == init && any_binary_diff) return GoalState::kDetected;
  if (!any_maybe_diff) return GoalState::kImpossible;
  return GoalState::kPending;
}

std::pair<FrameNode, Val3> PodemEngine::backtrace(FrameNode node, Val3 want) {
  const Netlist& nl = *netlist_;
  for (std::size_t guard = 0; guard < 4 * nl.size() + 8; ++guard) {
    if (is_free_input(nl, node)) return {node, want};
    const GateType type = nl.type(node.node);
    const auto fanins = nl.fanins(node.node);
    if (type == GateType::kDff) {
      // Frame-2 state variable: justified through the frame-1 next state.
      node = {Frame::k1, nl.dff_input(node.node)};
      continue;
    }
    if (type == GateType::kConst0 || type == GateType::kConst1) {
      return {{Frame::k1, kNoNode}, want};  // cannot justify through constants
    }
    // Choose an unassigned fanin to continue through.
    NodeId chosen = kNoNode;
    std::size_t nx = 0;
    for (const NodeId fi : fanins) {
      if (good_[idx({node.frame, fi})] == Val3::kX) {
        ++nx;
        if (chosen == kNoNode || rng_.chance(1, static_cast<std::uint32_t>(nx))) {
          chosen = fi;
        }
      }
    }
    if (chosen == kNoNode) return {{Frame::k1, kNoNode}, want};

    switch (type) {
      case GateType::kBuf:
        break;
      case GateType::kNot:
        want = not3(want);
        break;
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        // With the output inversion folded away, either one controlling input
        // suffices (drive `chosen` controlling) or all inputs must be
        // non-controlling -- in both cases the needed input value equals the
        // folded output value.
        const bool core_want = (want == Val3::k1) != inverts(type);
        want = core_want ? Val3::k1 : Val3::k0;
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        bool parity = type == GateType::kXnor;
        for (const NodeId fi : fanins) {
          if (fi == chosen) continue;
          const Val3 v = good_[idx({node.frame, fi})];
          if (v == Val3::k1) parity = !parity;  // X treated as 0 heuristically
        }
        const bool need = (want == Val3::k1) != parity;
        want = need ? Val3::k1 : Val3::k0;
        break;
      }
      default:
        return {{Frame::k1, kNoNode}, want};
    }
    node = {node.frame, chosen};
  }
  return {{Frame::k1, kNoNode}, want};
}

std::pair<FrameNode, Val3> PodemEngine::pick_objective(
    const TransitionFault& fault, const std::vector<Val3>& faulty) {
  const Netlist& nl = *netlist_;
  const Val3 init = fault.rising ? Val3::k0 : Val3::k1;
  const Val3 final_v = fault.rising ? Val3::k1 : Val3::k0;

  if (good_[idx({Frame::k1, fault.line})] == Val3::kX) {
    return backtrace({Frame::k1, fault.line}, init);
  }
  if (good_[idx({Frame::k2, fault.line})] == Val3::kX) {
    return backtrace({Frame::k2, fault.line}, final_v);
  }

  // Propagation: find a frame-2 D-frontier gate (output unknown, some fanin
  // carrying a binary good/faulty difference) and drive an unknown side input
  // non-controlling.
  for (const NodeId id : nl.eval_order()) {
    if (good_[idx({Frame::k2, id})] != Val3::kX) continue;
    const auto fanins = nl.fanins(id);
    bool carries_diff = false;
    for (const NodeId fi : fanins) {
      const Val3 gv = good_[idx({Frame::k2, fi})];
      const Val3 fv = faulty[fi];
      if (gv != Val3::kX && fv != Val3::kX && gv != fv) {
        carries_diff = true;
        break;
      }
    }
    if (!carries_diff) continue;
    const GateType type = nl.type(id);
    for (const NodeId fi : fanins) {
      if (good_[idx({Frame::k2, fi})] != Val3::kX) continue;
      Val3 want = Val3::k0;
      if (has_controlling_value(type)) {
        want = controlling_value(type) ? Val3::k0 : Val3::k1;
      }
      return backtrace({Frame::k2, fi}, want);
    }
  }

  // Fallback: assign any free unknown input (keeps the search complete).
  for (int f = 0; f < 2; ++f) {
    const auto frame = static_cast<Frame>(f);
    for (const NodeId pi : nl.inputs()) {
      if (input_val_[idx({frame, pi})] == Val3::kX) {
        return {{frame, pi}, rng_.chance(1, 2) ? Val3::k1 : Val3::k0};
      }
    }
  }
  for (const NodeId ff : nl.flops()) {
    if (input_val_[idx({Frame::k1, ff})] == Val3::kX) {
      return {{Frame::k1, ff}, rng_.chance(1, 2) ? Val3::k1 : Val3::k0};
    }
  }
  return {{Frame::k1, kNoNode}, Val3::k0};
}

PodemOutcome PodemEngine::solve(std::span<const TransitionFault> goals,
                                bool backtrack_into_earlier) {
  require(!goals.empty(), "PodemEngine::solve", "need at least one goal");
  FBT_OBS_COUNTER_ADD("atpg.podem_solves_started", 1);
  const std::size_t floor = decisions_.size();
  PodemOutcome outcome;
  // Records the outcome; a failed solve first unwinds its own decisions.
  const auto finish = [&](PodemStatus status) {
    if (status != PodemStatus::kDetected) {
      while (decisions_.size() > floor) {
        input_val_[idx(decisions_.back().input)] = Val3::kX;
        decisions_.pop_back();
      }
    }
    outcome.status = status;
    FBT_OBS_COUNTER_ADD("atpg.podem_backtracks", outcome.backtracks);
    FBT_OBS_COUNTER_ADD("atpg.podem_decisions_made", outcome.decisions);
    if (status == PodemStatus::kAborted) {
      FBT_OBS_COUNTER_ADD("atpg.podem_solves_aborted", 1);
    }
    return outcome;
  };

  std::vector<std::vector<Val3>> faulty(goals.size());
  // Detection is stable under *added* assignments, so a goal detected at
  // decision depth d stays detected until the search backtracks below d;
  // caching this avoids one faulty-circuit simulation per settled goal per
  // iteration.
  constexpr std::size_t kNotDetected = static_cast<std::size_t>(-1);
  std::vector<std::size_t> detected_depth(goals.size(), kNotDetected);

  for (;;) {
    if (outcome.backtracks > config_.backtrack_limit) {
      return finish(PodemStatus::kAborted);
    }

    simulate();
    std::size_t pending = goals.size();  // index of first pending goal
    bool impossible = false;
    for (std::size_t k = 0; k < goals.size(); ++k) {
      if (detected_depth[k] != kNotDetected) continue;  // cached
      simulate_faulty(goals[k], faulty[k]);
      const GoalState state = goal_state(goals[k], faulty[k]);
      if (state == GoalState::kImpossible) {
        impossible = true;
        break;
      }
      if (state == GoalState::kDetected) {
        detected_depth[k] = decisions_.size();
      } else if (pending == goals.size()) {
        pending = k;
      }
    }

    if (!impossible) {
      if (pending == goals.size()) return finish(PodemStatus::kDetected);
      // Decide: advance the first pending goal.
      const auto [input, value] =
          pick_objective(goals[pending], faulty[pending]);
      if (input.node != kNoNode) {
        if (outcome.decisions >= config_.decision_limit) {
          return finish(PodemStatus::kAborted);
        }
        require(input_val_[idx(input)] == Val3::kX, "PodemEngine::solve",
                "internal: objective chose an assigned input");
        ++outcome.decisions;
        decisions_.push_back({input, value, false});
        input_val_[idx(input)] = value;
        continue;
      }
      // No way to advance this goal: backtrack as on a conflict.
    }

    // Backtrack: flip the deepest unflipped decision above the floor (or
    // anywhere, when backtracking into earlier decisions).
    const std::size_t lowest = backtrack_into_earlier ? 0 : floor;
    while (decisions_.size() > lowest && decisions_.back().flipped) {
      input_val_[idx(decisions_.back().input)] = Val3::kX;
      decisions_.pop_back();
    }
    if (decisions_.size() <= lowest) return finish(PodemStatus::kUndetectable);
    Decision& d = decisions_.back();
    d.value = not3(d.value);
    d.flipped = true;
    input_val_[idx(d.input)] = d.value;
    ++outcome.backtracks;
    for (std::size_t& depth : detected_depth) {
      if (depth != kNotDetected && depth >= decisions_.size()) {
        depth = kNotDetected;
      }
    }
  }
}

BroadsideTest PodemEngine::extract_test() {
  simulate();
  BroadsideTest test;
  const Netlist& nl = *netlist_;
  auto fill = [&](Val3 v) -> std::uint8_t {
    if (v == Val3::kX) return rng_.chance(1, 2) ? 1 : 0;
    return v == Val3::k1 ? 1 : 0;
  };
  test.scan_state.reserve(nl.num_flops());
  for (const NodeId ff : nl.flops()) {
    test.scan_state.push_back(fill(input_val_[idx({Frame::k1, ff})]));
  }
  test.v1.reserve(nl.num_inputs());
  test.v2.reserve(nl.num_inputs());
  for (const NodeId pi : nl.inputs()) {
    test.v1.push_back(fill(input_val_[idx({Frame::k1, pi})]));
    test.v2.push_back(fill(input_val_[idx({Frame::k2, pi})]));
  }
  return test;
}

}  // namespace fbt
