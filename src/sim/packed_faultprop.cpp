#include "sim/packed_faultprop.hpp"

#include <algorithm>
#include <numeric>

#include "sim/value.hpp"
#include "util/require.hpp"

namespace fbt {

PackedFaultProp::PackedFaultProp(const Netlist& netlist)
    : netlist_(&netlist) {
  require(netlist.finalized(), "PackedFaultProp", "netlist must be finalized");
  const std::size_t n = netlist.size();

  // Level-major renumbering (stable within a (level, type) class, so the
  // layout is deterministic): along any combinational path levels strictly
  // increase, hence internal ids do too, and one forward scan of the
  // frontier bitmap drains events in topological order. Within a level,
  // nodes of one gate type are contiguous, so the eval switch sees runs of
  // the same case as the scan pops a level's events.
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), NodeId{0});
  std::stable_sort(perm_.begin(), perm_.end(), [&](NodeId a, NodeId b) {
    const std::uint32_t la = netlist.level(a);
    const std::uint32_t lb = netlist.level(b);
    if (la != lb) return la < lb;
    return netlist.type(a) < netlist.type(b);
  });
  inv_.resize(n);
  for (std::size_t i = 0; i < n; ++i) inv_[perm_[i]] = static_cast<NodeId>(i);

  nodes_.assign(n, Node{});
  fanin_ids_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId old = perm_[i];
    const GateType type = netlist.type(old);
    const auto fanins = netlist.fanins(old);
    require(fanins.size() <= 0xFFFF, "PackedFaultProp",
            "fanin count must fit 16 bits");
    Node& m = nodes_[i];
    if (fanins.size() == 1 || fanins.size() == 2) {
      m.count = 2;
      m.tt = gate_truth_table(type, fanins.size());
      m.fan0 = inv_[fanins[0]];
      m.fan1 = inv_[fanins.back()];
    } else {
      m.count = static_cast<std::uint16_t>(fanins.size());
      m.tt = static_cast<std::uint8_t>(type);
      m.first = static_cast<std::uint32_t>(fanin_ids_.size());
      for (const NodeId f : fanins) fanin_ids_.push_back(inv_[f]);
    }
  }
  for (const NodeId po : netlist.outputs()) nodes_[inv_[po]].observe = 1;
  for (const NodeId ff : netlist.flops()) {
    nodes_[inv_[netlist.dff_input(ff)]].observe = 1;
  }

  // Fanout events: only combinational fanouts can extend a frame-2 cone
  // (flops capture at the frame boundary, not inside it).
  fanout_first_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t cnt = 0;
    for (const NodeId out : netlist.fanouts(perm_[i])) {
      if (is_combinational(netlist.type(out))) ++cnt;
    }
    fanout_first_[i + 1] = fanout_first_[i] + cnt;
  }
  fanout_ids_.resize(fanout_first_.back());
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t at = fanout_first_[i];
    for (const NodeId out : netlist.fanouts(perm_[i])) {
      if (is_combinational(netlist.type(out))) {
        fanout_ids_[at++] = inv_[out];
      }
    }
    // Ascending spans: pushes walk the bitmap forward, and the span's last
    // entry alone updates the scan's high-water word.
    std::sort(fanout_ids_.begin() + fanout_first_[i],
              fanout_ids_.begin() + at);
  }

  frontier_bits_.assign((n + 63) / 64, 0);
  site_bits_.assign((n + 63) / 64, 0);
  inject_.assign(n, 0);
}

void PackedFaultProp::bind_good_trace(std::span<const std::uint64_t> good) {
  require(good.size() == nodes_.size(), "PackedFaultProp::bind_good_trace",
          "trace must hold one word per node");
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].good = good[perm_[i]];
  }
  bound_ = true;
}

std::uint64_t PackedFaultProp::propagate(std::span<const NodeId> sites,
                                         std::uint64_t active, unsigned test) {
  require(sites.size() <= kLanes, "PackedFaultProp::propagate",
          "at most 64 fault lanes");
  NodeId internal[kLanes];
  for (std::size_t k = 0; k < sites.size(); ++k) internal[k] = inv_[sites[k]];
  return propagate_internal(std::span<const NodeId>(internal, sites.size()),
                            active, test);
}

std::uint64_t PackedFaultProp::propagate_internal(std::span<const NodeId> sites,
                                                  std::uint64_t active,
                                                  unsigned test) {
  require(bound_, "PackedFaultProp::propagate", "bind_good_trace first");
  require(sites.size() <= kLanes, "PackedFaultProp::propagate",
          "at most 64 fault lanes");
  if (active == 0) return 0;

  // Every exit path restores the between-calls invariant while the walked
  // lines are still cache-hot: all diff words zero (so the next call's fanin
  // gather can read any node's diff unconditionally) and site_bits_ clear.
  const auto cleanup = [&] {
    for (const NodeId id : touched_) nodes_[id].diff = 0;
    touched_.clear();
    for (const NodeId s : sites) site_bits_[s >> 6] = 0;
  };

  // Live window of the frontier bitmap: the forward scan only walks words
  // [lo, hi]. lo is bounded below by the seeded sites (fanout ids exceed
  // their driver's), hi is the high-water word of every push -- the fanout
  // spans are sorted, so the span's last entry maintains it.
  const std::size_t nwords = frontier_bits_.size();
  std::size_t lo = nwords;
  std::size_t hi = 0;

  // Fanout scheduling, hand-inlined at both event sources (seed + store):
  // a push is one OR into the L1-resident frontier bitmap; reconvergent
  // duplicates merge into the same bit for free.
  const auto enqueue_fanouts = [&](NodeId id) {
    const std::uint32_t first = fanout_first_[id];
    const std::uint32_t last = fanout_first_[id + 1];
    for (std::uint32_t i = first; i < last; ++i) {
      const NodeId out = fanout_ids_[i];
      frontier_bits_[out >> 6] |= 1ULL << (out & 63);
      // The pushed node is popped after the rest of the current level
      // drains -- far enough ahead that its record line lands before the
      // scan reaches it, close enough that it is not evicted again.
      __builtin_prefetch(&nodes_[out]);
    }
    if (first != last) {
      const std::size_t w = fanout_ids_[last - 1] >> 6;
      if (w > hi) hi = w;
    }
  };
  // Faulty word of a node for this test: the fault-free bit broadcast to
  // every lane, flipped in the lanes where a diff reached it. Branchless --
  // untouched nodes carry diff == 0.
  const auto faulty = [&](NodeId id) {
    const Node& fl = nodes_[id];
    return (0 - ((fl.good >> test) & 1ULL)) ^ fl.diff;
  };

  // Collect the forced lanes per site before seeding: a group may carry two
  // faults of one line (rising and falling), and the shared site's diff must
  // hold both lanes.
  for (std::uint64_t rem = active; rem != 0; rem &= rem - 1) {
    const unsigned k = static_cast<unsigned>(__builtin_ctzll(rem));
    const NodeId s = sites[k];
    if (((site_bits_[s >> 6] >> (s & 63)) & 1) == 0) {
      site_bits_[s >> 6] |= 1ULL << (s & 63);
      inject_[s] = 0;
    }
    inject_[s] |= 1ULL << k;
  }
  // Seed: a launched site differs from the fault-free machine in exactly its
  // forced lanes (the fault-free line transitions while the faulty one is
  // stuck at the launch-time initial value). A site that is itself observed
  // detects -- and thereby prunes -- its lanes immediately.
  std::uint64_t detect = 0;
  for (std::uint64_t rem = active; rem != 0; rem &= rem - 1) {
    const unsigned k = static_cast<unsigned>(__builtin_ctzll(rem));
    const NodeId s = sites[k];
    Node& lane = nodes_[s];
    if (lane.diff != 0) continue;  // shared line, already seeded
    lane.diff = inject_[s];
    touched_.push_back(s);
    if (lane.observe) detect |= lane.diff;
    if ((s >> 6) < lo) lo = s >> 6;
    enqueue_fanouts(s);
  }
  if (detect == active) {
    // Caught at the sites themselves; unwind the seeded events.
    if (lo <= hi) {
      std::fill(frontier_bits_.begin() + static_cast<std::ptrdiff_t>(lo),
                frontier_bits_.begin() + static_cast<std::ptrdiff_t>(hi + 1),
                0);
    }
    cleanup();
    return detect;
  }

  std::uint64_t evals = 0;
  for (std::size_t wi = lo; wi <= hi; ++wi) {
    // Re-read the word after every pop: a store below can push events into
    // this same word, but always at a higher bit (ids increase along paths),
    // so clearing the lowest set bit is exactly the popped event.
    while (frontier_bits_[wi] != 0) {
      const unsigned b =
          static_cast<unsigned>(__builtin_ctzll(frontier_bits_[wi]));
      frontier_bits_[wi] &= frontier_bits_[wi] - 1;
      const NodeId id = static_cast<NodeId>((wi << 6) | b);
      ++evals;
      Node& m = nodes_[id];
      // One- and two-input gates evaluate the truth table stored in their
      // record; wider gates read their fanin span.
      std::uint64_t out;
      if (m.count == 2) {
        out = eval_truth_table(m.tt, faulty(m.fan0), faulty(m.fan1));
      } else {
        const NodeId* const fan = fanin_ids_.data() + m.first;
        out = eval_gate<std::uint64_t>(
            static_cast<GateType>(m.tt), m.count,
            [&](std::size_t k) { return faulty(fan[k]); });
      }
      std::uint64_t d = out ^ (0 - ((m.good >> test) & 1ULL));
      // A fault site inside another lane's cone stays stuck in its own lane
      // no matter what its fanins evaluate to. Sites are rare, so guard the
      // inject_ load behind the (L1-resident) site bitmap.
      if ((site_bits_[wi] >> b) & 1) d |= inject_[id];
      // Detected lanes are dead: per-test detection is boolean, so once a
      // lane reached any observe point nothing downstream of here can change
      // the answer. Masking it out of every stored diff kills its frontier
      // within one level.
      d &= ~detect;
      if (d == 0) continue;  // every live lane's effect died here
      if (m.observe) {
        detect |= d;
        if (detect == active) {
          // Every injected lane has been caught; the rest of the walk cannot
          // change the answer. Drop the pending events and stop.
          std::fill(frontier_bits_.begin() + static_cast<std::ptrdiff_t>(wi),
                    frontier_bits_.begin() + static_cast<std::ptrdiff_t>(hi + 1),
                    0);
          diff_words_propagated_ += evals;
          cleanup();
          return detect;
        }
        d &= ~detect;  // the lanes observed right here are dead too
        if (d == 0) continue;
      }
      m.diff = d;
      touched_.push_back(id);
      enqueue_fanouts(id);
    }
  }
  diff_words_propagated_ += evals;
  cleanup();
  return detect;
}

std::uint64_t PackedFaultProp::footprint_bytes() const {
  return sizeof(*this) + nodes_.size() * sizeof(Node) +
         (inject_.size() + frontier_bits_.size() + site_bits_.size()) *
             sizeof(std::uint64_t) +
         (perm_.size() + inv_.size() + fanin_ids_.size() + touched_.size() +
          fanout_ids_.size()) *
             sizeof(NodeId) +
         fanout_first_.size() * sizeof(std::uint32_t);
}

}  // namespace fbt
