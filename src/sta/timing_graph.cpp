#include "sta/timing_graph.hpp"

#include <algorithm>
#include <limits>

#include "sim/value.hpp"
#include "util/require.hpp"

namespace fbt {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

}  // namespace

TimingGraph::TimingGraph(const Netlist& netlist, const DelayLibrary& library,
                         std::span<const Assignment> case_values)
    : netlist_(&netlist), library_(library) {
  require(netlist.finalized(), "TimingGraph", "netlist must be finalized");
  const std::size_t n = netlist.size();
  val1_.assign(n, Val3::kX);
  val2_.assign(n, Val3::kX);

  // Only inputs specified under both patterns act as case constraints.
  std::vector<Val3> in1(n, Val3::kX);
  std::vector<Val3> in2(n, Val3::kX);
  for (const Assignment& a : case_values) {
    auto& side = a.where.frame == Frame::k1 ? in1 : in2;
    side[a.where.node] = a.value ? Val3::k1 : Val3::k0;
  }
  auto accept_case = [&](NodeId id) {
    return in1[id] != Val3::kX && in2[id] != Val3::kX;
  };

  // Three-valued settle of both patterns.
  auto settle_pattern = [&](std::vector<Val3>& vals,
                            const std::vector<Val3>& in, bool second_frame) {
    for (const NodeId pi : netlist.inputs()) {
      vals[pi] = accept_case(pi) ? in[pi] : Val3::kX;
    }
    for (const NodeId ff : netlist.flops()) {
      if (accept_case(ff)) {
        vals[ff] = in[ff];
      } else if (second_frame) {
        // Broadside linkage: s2 = next-state of pattern 1 when derivable.
        vals[ff] = val1_[netlist.dff_input(ff)];
      } else {
        vals[ff] = Val3::kX;
      }
    }
    // Case values may be set on internal pins too (as with PrimeTime's
    // set_case_analysis); a both-pattern-specified internal condition
    // overrides the (necessarily weaker or equal) forward-derived value.
    settle(netlist, vals.data(), [&](NodeId id) {
      if (accept_case(id)) vals[id] = in[id];
    });
  };
  settle_pattern(val1_, in1, false);
  settle_pattern(val2_, in2, true);

  // A node can toggle unless both pattern values are binary and equal.
  toggle_.assign(n, 0);
  for (NodeId id = 0; id < n; ++id) {
    const bool steady =
        val1_[id] != Val3::kX && val2_[id] != Val3::kX && val1_[id] == val2_[id];
    toggle_[id] = steady ? 0 : 1;
  }

  // Reverse DP over the sensitizable subgraph.
  best_completion_.assign(2 * n, kNegInf);
  auto relax = [&](NodeId id) {
    if (!toggle_[id]) return;
    for (int dir = 0; dir < 2; ++dir) {
      double best = is_capture_point(netlist, id) ? 0.0 : kNegInf;
      for (const NodeId out : netlist.fanouts(id)) {
        if (!is_combinational(netlist.type(out))) continue;
        if (!edge_open(id, out)) continue;
        const int dir_out = dir_through(out, dir);
        const double completion = best_completion_[2 * out + dir_out];
        if (completion == kNegInf) continue;
        best = std::max(best, edge_delay(out, dir_out) + completion);
      }
      best_completion_[2 * id + dir] = best;
    }
  };
  const auto& order = netlist.eval_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) relax(*it);
  for (const NodeId pi : netlist.inputs()) relax(pi);
  for (const NodeId ff : netlist.flops()) relax(ff);
}

double TimingGraph::edge_delay(NodeId gate, int dir_out) const {
  const Gate& g = netlist_->gate(gate);
  const GateDelay d = library_.delay(g.type, g.fanins.size());
  double delay = dir_out == 0 ? d.rise : d.fall;
  // Pessimism for side inputs whose second-pattern value is unresolved.
  if (g.fanins.size() > 1) {
    std::size_t unresolved = 0;
    for (const NodeId fi : g.fanins) {
      if (val2_[fi] == Val3::kX) ++unresolved;
    }
    // The on-path input itself does not count as a side input; at most one
    // of the unresolved inputs is the on-path one.
    if (unresolved > 0) --unresolved;
    delay += library_.side_input_penalty() * static_cast<double>(unresolved);
  }
  return delay;
}

bool TimingGraph::edge_open(NodeId from, NodeId gate) const {
  if (!toggle_[from] || !toggle_[gate]) return false;
  const Gate& g = netlist_->gate(gate);
  if (!has_controlling_value(g.type)) return true;
  const Val3 ctrl = controlling_value(g.type) ? Val3::k1 : Val3::k0;
  for (const NodeId fi : g.fanins) {
    if (fi == from) continue;
    if (val2_[fi] == ctrl) return false;  // blocked in the second pattern
  }
  return true;
}

std::optional<double> TimingGraph::path_delay(
    const PathDelayFault& fault) const {
  const auto& nodes = fault.path.nodes;
  require(!nodes.empty(), "TimingGraph::path_delay", "empty path");
  if (!toggle_[nodes[0]]) return std::nullopt;
  // Check that the requested source transition is even possible under the
  // case values (e.g. a rising source needs val1 != 1 and val2 != 0).
  const Val3 v1 = val1_[nodes[0]];
  const Val3 v2 = val2_[nodes[0]];
  if (fault.rising && (v1 == Val3::k1 || v2 == Val3::k0)) return std::nullopt;
  if (!fault.rising && (v1 == Val3::k0 || v2 == Val3::k1)) return std::nullopt;

  double delay = 0.0;
  int dir = fault.rising ? 0 : 1;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (!edge_open(nodes[i - 1], nodes[i])) return std::nullopt;
    dir = dir_through(nodes[i], dir);
    delay += edge_delay(nodes[i], dir);
  }
  return delay;
}

double TimingGraph::worst_arrival() const {
  double best = 0.0;
  auto consider = [&](NodeId id) {
    for (int dir = 0; dir < 2; ++dir) {
      if (best_completion_[2 * id + dir] != kNegInf) {
        best = std::max(best, best_completion_[2 * id + dir]);
      }
    }
  };
  for (const NodeId pi : netlist_->inputs()) consider(pi);
  for (const NodeId ff : netlist_->flops()) consider(ff);
  return best;
}

void TimingGraph::enumerate(std::size_t max_paths,
                            std::optional<double> threshold,
                            std::vector<TimedPath>& out) const {
  struct Item {
    std::vector<NodeId> nodes;
    int src_dir = 0;
    int dir = 0;
    double delay = 0.0;  ///< accumulated so far
    double bound = 0.0;  ///< delay + best completion
    bool complete = false;

    bool operator<(const Item& other) const { return bound < other.bound; }
  };
  std::vector<Item> heap;
  auto push = [&](Item item) {
    heap.push_back(std::move(item));
    std::push_heap(heap.begin(), heap.end());
  };

  auto start = [&](NodeId src) {
    if (!toggle_[src]) return;
    for (int dir = 0; dir < 2; ++dir) {
      // Respect case transitions at the source (a rising case input can only
      // launch rising).
      const Val3 v1 = val1_[src];
      const Val3 v2 = val2_[src];
      if (dir == 0 && (v1 == Val3::k1 || v2 == Val3::k0)) continue;
      if (dir == 1 && (v1 == Val3::k0 || v2 == Val3::k1)) continue;
      const double completion = best_completion_[2 * src + dir];
      if (completion == kNegInf) continue;
      push({{src}, dir, dir, 0.0, completion, false});
    }
  };
  for (const NodeId pi : netlist_->inputs()) start(pi);
  for (const NodeId ff : netlist_->flops()) start(ff);

  constexpr std::size_t kHeapCap = 400000;
  while (!heap.empty() && out.size() < max_paths) {
    std::pop_heap(heap.begin(), heap.end());
    Item item = std::move(heap.back());
    heap.pop_back();
    if (threshold && item.bound < *threshold) break;
    if (item.complete) {
      out.push_back(
          {PathDelayFault{Path{std::move(item.nodes)}, item.src_dir == 0},
           item.delay});
      continue;
    }
    if (heap.size() > kHeapCap) break;  // safety valve on path explosion
    const NodeId last = item.nodes.back();
    if (is_capture_point(*netlist_, last)) {
      Item done = item;
      done.bound = done.delay;
      done.complete = true;
      push(std::move(done));
    }
    for (const NodeId outnode : netlist_->fanouts(last)) {
      if (!is_combinational(netlist_->type(outnode))) continue;
      if (!edge_open(last, outnode)) continue;
      const int dir_out = dir_through(outnode, item.dir);
      const double completion = best_completion_[2 * outnode + dir_out];
      if (completion == kNegInf) continue;
      Item extended;
      extended.nodes = item.nodes;
      extended.nodes.push_back(outnode);
      extended.src_dir = item.src_dir;
      extended.dir = dir_out;
      extended.delay = item.delay + edge_delay(outnode, dir_out);
      extended.bound = extended.delay + completion;
      push(std::move(extended));
    }
  }
}

std::vector<TimedPath> TimingGraph::most_critical(std::size_t k) const {
  std::vector<TimedPath> out;
  enumerate(k, std::nullopt, out);
  return out;
}

std::vector<TimedPath> TimingGraph::at_least(double threshold,
                                             std::size_t max_paths) const {
  std::vector<TimedPath> out;
  enumerate(max_paths, threshold, out);
  return out;
}

}  // namespace fbt
