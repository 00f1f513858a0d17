#include "atpg/podem.hpp"

#include <algorithm>
#include <array>

#include "obs/instrument.hpp"
#include "util/require.hpp"

namespace fbt {
namespace {

constexpr std::size_t kGateTypes =
    static_cast<std::size_t>(GateType::kConst1) + 1;

/// eval_gate<Val3> tabulated per gate type and fanin count 1-3 in the
/// PodemEngine::Gate::table layout. Slot 0 reads fanin 0, slot 2 the last
/// fanin and slot 1 fanin 1 (the last one below three fanins), so every
/// index a gate can form holds eval_gate's value.
const std::array<std::array<std::uint64_t, 3>, kGateTypes>& fold_tables() {
  static const auto tables = [] {
    std::array<std::array<std::uint64_t, 3>, kGateTypes> out{};
    for (std::size_t t = 0; t < kGateTypes; ++t) {
      const auto type = static_cast<GateType>(t);
      if (!is_combinational(type)) continue;
      for (std::size_t count = 1; count <= 3; ++count) {
        for (unsigned i = 0; i < 27; ++i) {
          const Val3 slot[3] = {static_cast<Val3>(i / 9),
                                static_cast<Val3>(i / 3 % 3),
                                static_cast<Val3>(i % 3)};
          const Val3 v = eval_gate<Val3>(type, count, [&](std::size_t k) {
            return slot[k == 0 ? 0 : k == count - 1 ? 2 : 1];
          });
          out[t][count - 1] |= static_cast<std::uint64_t>(v) << (2 * i);
        }
      }
    }
    return out;
  }();
  return tables;
}

}  // namespace

PodemEngine::PodemEngine(const Netlist& netlist, const PodemConfig& config)
    : netlist_(&netlist),
      config_(config),
      rng_(config.rng_seed, 0x2545f4914f6cdd1dULL) {
  require(netlist.finalized(), "PodemEngine", "netlist must be finalized");
  const std::size_t n = netlist.size();
  dff_input_.reserve(netlist.num_flops());
  for (const NodeId ff : netlist.flops()) {
    dff_input_.push_back(netlist.dff_input(ff));
  }
  observe_ = netlist.outputs();
  observe_.insert(observe_.end(), dff_input_.begin(), dff_input_.end());
  observed_.assign(n, 0);
  for (const NodeId obs : observe_) observed_[obs] = 1;
  const std::span<const EvalEntry> entries = netlist.eval_entries();
  entries_ = entries.data();
  entry_fanins_ = netlist.eval_fanin_ids();
  std::vector<std::uint32_t> pos(n, 0);
  level_begin_.assign(netlist.max_level() + 2, 0);
  gates_.resize(entries.size());
  const auto& folds = fold_tables();
  for (std::uint32_t p = 0; p < entries.size(); ++p) {
    const EvalEntry& e = entries[p];
    Gate& g = gates_[p];
    pos[e.node] = p;
    g.node = e.node;
    g.level = netlist.level(e.node);
    ++level_begin_[g.level + 1];
    if (e.count == 0 || e.count > 3) continue;
    const NodeId* const fan = entry_fanins_ + e.first;
    g.in[0] = fan[0];
    g.in[1] = fan[std::min<std::uint32_t>(1, e.count - 1)];
    g.in[2] = fan[e.count - 1];
    g.table = folds[static_cast<std::size_t>(e.type)][e.count - 1];
  }
  for (std::size_t l = 1; l < level_begin_.size(); ++l) {
    level_begin_[l] += level_begin_[l - 1];
  }
  level_end_.assign(level_begin_.begin(), level_begin_.end() - 1);
  queue_.resize(entries.size());
  lo_ = static_cast<std::uint32_t>(level_end_.size());
  fanout_off_.assign(n + 1, 0);
  for (NodeId id = 0; id < n; ++id) {
    for (const NodeId fo : netlist.fanouts(id)) {
      if (is_combinational(netlist.type(fo))) fanout_pos_.push_back(pos[fo]);
    }
    fanout_off_[id + 1] = static_cast<std::uint32_t>(fanout_pos_.size());
  }

  // All-X values are settled for all-X sources, except where constants
  // drive: set them as sources, then bring frame 2's state up to date.
  input_val_.assign(2 * n, Val3::kX);
  good_.assign(2 * n, Val3::kX);
  for (const std::size_t base : {std::size_t{0}, n}) {
    for (const NodeId c : netlist.const0_nodes()) set_source(base, c, Val3::k0);
    for (const NodeId c : netlist.const1_nodes()) set_source(base, c, Val3::k1);
    propagate<false>(base, nullptr);
  }
  simulate();
  trail_.clear();  // no decision can unwind below the constructed state
}

void PodemEngine::reset() {
  std::fill(input_val_.begin(), input_val_.end(), Val3::kX);
  decisions_.clear();
  trail_.clear();
}

bool PodemEngine::preassign(std::span<const Assignment> assignments) {
  for (const Assignment& a : assignments) {
    require(is_free_input(*netlist_, a.where), "PodemEngine::preassign",
            "pre-assignments must be on free inputs");
    const Val3 v = a.value ? Val3::k1 : Val3::k0;
    Val3& slot = input_val_[idx(a.where)];
    if (slot != Val3::kX && slot != v) return false;
    slot = v;
  }
  return true;
}

void PodemEngine::simulate() {
  const Netlist& nl = *netlist_;
  const std::size_t n = nl.size();
  const Val3* const g1 = good_.data();
  const Val3* const in1 = input_val_.data();
  const Val3* const in2 = in1 + n;
  for (const NodeId pi : nl.inputs()) set_source(0, pi, in1[pi]);
  for (const NodeId ff : nl.flops()) set_source(0, ff, in1[ff]);
  propagate<false>(0, nullptr);
  // Frame 2: state variables are the frame-1 next state.
  for (const NodeId pi : nl.inputs()) set_source(n, pi, in2[pi]);
  const std::vector<NodeId>& flops = nl.flops();
  for (std::size_t i = 0; i < flops.size(); ++i) {
    set_source(n, flops[i], g1[dff_input_[i]]);
  }
  propagate<false>(n, nullptr);
  const Val3* const g2 = g1 + n;
  x_observed_ = std::any_of(observe_.begin(), observe_.end(),
                            [g2](NodeId obs) { return g2[obs] == Val3::kX; });
}

void PodemEngine::set_source(std::size_t base, NodeId id, Val3 v) {
  Val3& slot = good_[base + id];
  if (slot == v) return;
  trail_.push_back({static_cast<std::uint32_t>(base + id), slot});
  slot = v;
  schedule_fanouts(id);
}

void PodemEngine::schedule_fanouts(NodeId id) {
  for (std::uint32_t k = fanout_off_[id]; k < fanout_off_[id + 1]; ++k) {
    Gate& g = gates_[fanout_pos_[k]];
    if (g.queued != 0) continue;
    g.queued = 1;
    queue_[level_end_[g.level]++] = fanout_pos_[k];
    lo_ = std::min(lo_, g.level);
    hi_ = std::max(hi_, g.level);
  }
}

template <bool kFaulty>
void PodemEngine::propagate(std::size_t base, std::vector<DiffEntry>* diff) {
  // Locals throughout: every store into vals or a Gate could otherwise
  // force the members to be reloaded.
  Val3* const vals = good_.data() + base;
  Gate* const gates = gates_.data();
  std::uint32_t* const queue = queue_.data();
  const std::uint32_t* const level_begin = level_begin_.data();
  std::uint32_t* const level_end = level_end_.data();
  const std::uint32_t* const fo_off = fanout_off_.data();
  const std::uint32_t* const fo_pos = fanout_pos_.data();
  std::uint32_t hi = hi_;
  std::uint64_t evals = 0;
  for (std::uint32_t l = lo_; l <= hi; ++l) {
    // A gate's fanouts sit on higher levels, so this level's slots do not
    // grow while it is walked.
    const std::uint32_t end = level_end[l];
    for (std::uint32_t i = level_begin[l]; i < end; ++i) {
      const std::uint32_t p = queue[i];
      Gate& g = gates[p];
      g.queued = 0;
      Val3 v;
      if (g.table != 0) {
        const unsigned at = 9 * static_cast<unsigned>(vals[g.in[0]]) +
                            3 * static_cast<unsigned>(vals[g.in[1]]) +
                            static_cast<unsigned>(vals[g.in[2]]);
        v = static_cast<Val3>((g.table >> (2 * at)) & 3);
      } else {
        const EvalEntry& e = entries_[p];
        const NodeId* const fan = entry_fanins_ + e.first;
        v = eval_gate<Val3>(e.type, e.count,
                            [vals, fan](std::size_t k) { return vals[fan[k]]; });
      }
      ++evals;
      const NodeId node = g.node;
      const Val3 old = vals[node];
      if (v == old) continue;
      vals[node] = v;
      if constexpr (kFaulty) {
        diff->push_back({node, old, v});
      } else {
        trail_.push_back({static_cast<std::uint32_t>(base + node), old});
      }
      for (std::uint32_t k = fo_off[node]; k < fo_off[node + 1]; ++k) {
        const std::uint32_t q = fo_pos[k];
        Gate& fo = gates[q];
        if (fo.queued != 0) continue;
        fo.queued = 1;
        queue[level_end[fo.level]++] = q;
        hi = std::max(hi, fo.level);
      }
    }
    level_end[l] = level_begin[l];
  }
  gate_evals_ += evals;
  if constexpr (kFaulty) faulty_gate_evals_ += evals;
  lo_ = static_cast<std::uint32_t>(level_end_.size());
  hi_ = 0;
}

void PodemEngine::unwind(std::size_t mark) {
  Val3* const good = good_.data();
  while (trail_.size() > mark) {
    good[trail_.back().index] = trail_.back().old;
    trail_.pop_back();
  }
}

void PodemEngine::simulate_faulty(const TransitionFault& fault,
                                  std::vector<DiffEntry>& diff) {
  const std::size_t n = netlist_->size();
  Val3* const g2 = good_.data() + n;
  // The faulty circuit shares frame 1 and the frame-2 sources with the good
  // one; it differs only in the cone where forcing the site changes values.
  diff.clear();
  const Val3 forced = fault.rising ? Val3::k0 : Val3::k1;
  const GateType type = netlist_->type(fault.line);
  // Constants are never forced (fault lists exclude them), and a site that
  // already carries the forced value changes nothing.
  if (type == GateType::kConst0 || type == GateType::kConst1 ||
      g2[fault.line] == forced) {
    return;
  }
  diff.push_back({fault.line, g2[fault.line], forced});
  g2[fault.line] = forced;
  schedule_fanouts(fault.line);
  propagate<true>(n, &diff);
  for (const DiffEntry& d : diff) g2[d.node] = d.good;
}

std::span<const Val3> PodemEngine::faulty_frame(const TransitionFault& fault) {
  const Val3* const g2 = good_.data() + netlist_->size();
  faulty_frame_.assign(g2, g2 + netlist_->size());
  if (diff_.empty()) diff_.resize(1);
  simulate_faulty(fault, diff_[0]);
  for (const DiffEntry& d : diff_[0]) faulty_frame_[d.node] = d.faulty;
  return faulty_frame_;
}

bool PodemEngine::launch_fails(const TransitionFault& fault) const {
  const Val3 init = fault.rising ? Val3::k0 : Val3::k1;
  const Val3 launch = good_[idx({Frame::k1, fault.line})];
  return launch != Val3::kX && launch != init;
}

PodemEngine::GoalState PodemEngine::goal_state(
    const TransitionFault& fault, const std::vector<DiffEntry>& diff) const {
  // Outside the cone the faulty value is the good one, so an observation
  // point there can differ only while its good value is X; inside it the
  // values differ, and a binary difference detects a launched goal.
  const bool launched = good_[idx({Frame::k1, fault.line})] != Val3::kX;
  bool cone_observed = false;
  for (const DiffEntry& d : diff) {
    if (observed_[d.node] == 0) continue;
    if (!launched) return GoalState::kPending;
    if (d.good != Val3::kX && d.faulty != Val3::kX) return GoalState::kDetected;
    cone_observed = true;
  }
  return cone_observed || x_observed_ ? GoalState::kPending
                                      : GoalState::kImpossible;
}

std::pair<FrameNode, Val3> PodemEngine::backtrace(FrameNode node, Val3 want) {
  const Netlist& nl = *netlist_;
  for (std::size_t guard = 0; guard < 4 * nl.size() + 8; ++guard) {
    if (is_free_input(nl, node)) return {node, want};
    const GateType type = nl.type(node.node);
    const auto fanins = nl.fanins(node.node);
    if (type == GateType::kDff) {
      // Frame-2 state variable: justified through the frame-1 next state
      // (a flip-flop's one fanin is its D input).
      node = {Frame::k1, fanins[0]};
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
    const TransitionFault& fault, const std::vector<DiffEntry>& diff) {
  const Netlist& nl = *netlist_;
  const Val3 init = fault.rising ? Val3::k0 : Val3::k1;
  const Val3 final_v = fault.rising ? Val3::k1 : Val3::k0;

  if (good_[idx({Frame::k1, fault.line})] == Val3::kX) {
    return backtrace({Frame::k1, fault.line}, init);
  }
  if (good_[idx({Frame::k2, fault.line})] == Val3::kX) {
    return backtrace({Frame::k2, fault.line}, final_v);
  }

  // Propagation: take the first frame-2 D-frontier gate in eval order
  // (output unknown, some fanin carrying a binary good/faulty difference)
  // and drive an unknown side input non-controlling. Every fanin carrying a
  // difference is in `diff`, so the frontier is among their fanouts.
  const Val3* const g2 = good_.data() + nl.size();
  constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  std::uint32_t first = kNone;
  for (const DiffEntry& d : diff) {
    if (d.good == Val3::kX || d.faulty == Val3::kX) continue;
    for (std::uint32_t k = fanout_off_[d.node]; k < fanout_off_[d.node + 1];
         ++k) {
      const std::uint32_t p = fanout_pos_[k];
      if (g2[gates_[p].node] == Val3::kX) first = std::min(first, p);
    }
  }
  if (first != kNone) {
    // An unknown output has an unknown fanin.
    const GateType type = entries_[first].type;
    for (const NodeId fi : nl.fanins(gates_[first].node)) {
      if (g2[fi] != Val3::kX) continue;
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
    FBT_OBS_COUNTER_ADD("atpg.podem_gate_evals", gate_evals_);
    FBT_OBS_COUNTER_ADD("atpg.podem_faulty_gate_evals", faulty_gate_evals_);
    gate_evals_ = 0;
    faulty_gate_evals_ = 0;
    FBT_OBS_COUNTER_ADD("atpg.podem_backtracks", outcome.backtracks);
    FBT_OBS_COUNTER_ADD("atpg.podem_decisions_made", outcome.decisions);
    if (status == PodemStatus::kAborted) {
      FBT_OBS_COUNTER_ADD("atpg.podem_solves_aborted", 1);
    }
    return outcome;
  };

  if (diff_.size() < goals.size()) diff_.resize(goals.size());
  // Detection is stable under *added* assignments, so a goal detected at
  // decision depth d stays detected until the search backtracks below d;
  // caching this avoids one faulty-circuit simulation per settled goal per
  // iteration.
  constexpr std::size_t kNotDetected = static_cast<std::size_t>(-1);
  detected_depth_.assign(goals.size(), kNotDetected);

  for (;;) {
    if (outcome.backtracks > config_.backtrack_limit) {
      return finish(PodemStatus::kAborted);
    }

    simulate();
    std::size_t pending = goals.size();  // index of first pending goal
    bool impossible = false;
    for (std::size_t k = 0; k < goals.size(); ++k) {
      if (detected_depth_[k] != kNotDetected) continue;  // cached
      if (launch_fails(goals[k])) {
        impossible = true;
        break;
      }
      simulate_faulty(goals[k], diff_[k]);
      const GoalState state = goal_state(goals[k], diff_[k]);
      if (state == GoalState::kImpossible) {
        impossible = true;
        break;
      }
      if (state == GoalState::kDetected) {
        detected_depth_[k] = decisions_.size();
      } else if (pending == goals.size()) {
        pending = k;
      }
    }

    if (!impossible) {
      if (pending == goals.size()) return finish(PodemStatus::kDetected);
      // Decide: advance the first pending goal.
      const auto [input, value] = pick_objective(goals[pending], diff_[pending]);
      if (input.node != kNoNode) {
        if (outcome.decisions >= config_.decision_limit) {
          return finish(PodemStatus::kAborted);
        }
        require(input_val_[idx(input)] == Val3::kX, "PodemEngine::solve",
                "internal: objective chose an assigned input");
        ++outcome.decisions;
        decisions_.push_back({input, value, false, trail_.size()});
        input_val_[idx(input)] = value;
        continue;
      }
      // No way to advance this goal: backtrack as on a conflict.
    }

    // Backtrack: flip the deepest unflipped decision above the floor (or
    // anywhere, when backtracking into earlier decisions), and restore the
    // values from before it was first simulated; simulate() then propagates
    // only the flipped input (and whatever changed since, e.g. preassign()).
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
    unwind(d.mark);
    ++outcome.backtracks;
    for (std::size_t& depth : detected_depth_) {
      if (depth != kNotDetected && depth >= decisions_.size()) {
        depth = kNotDetected;
      }
    }
  }
}

BroadsideTest PodemEngine::extract_test() {
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
