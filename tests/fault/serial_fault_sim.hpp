// Serial broadside transition-fault grader: the test oracle for the PPSFP
// engine in BroadsideFaultSim.
//
// One fault at a time, 64 tests per word. The fault-free trace of each
// 64-test block comes from BroadsideBlock, the loader the production grader
// uses; each launched fault's stuck-at-initial word is then propagated
// event-driven, level by level, through its fanout cone on top of the
// frame-2 trace. grade(), detection_matrix() and detects() have the
// production signatures, and their detect counts, detection matrices and
// first-detect provenance must equal BroadsideFaultSim's bit for bit.
//
// Header-only and linked into no library: the tests and bench_ppsfp's
// "serial" row include it directly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault_sim.hpp"
#include "obs/instrument.hpp"
#include "sim/value.hpp"
#include "util/require.hpp"
#include "util/timer.hpp"

namespace fbt::testing {

/// Event-driven single-fault propagation over a 64-pattern block, observed
/// at the broadside capture points: all primary outputs plus all flip-flop
/// D inputs.
class SerialFaultProp {
 public:
  explicit SerialFaultProp(const Netlist& netlist) : netlist_(&netlist) {
    require(netlist.finalized(), "SerialFaultProp",
            "netlist must be finalized");
    faulty_.assign(netlist.size(), 0);
    stamp_.assign(netlist.size(), 0);
    observe_.assign(netlist.size(), 0);
    queued_stamp_.assign(netlist.size(), 0);
    level_queue_.resize(netlist.max_level() + 1);
    for (const NodeId po : netlist.outputs()) observe_[po] = 1;
    for (const NodeId ff : netlist.flops()) {
      observe_[netlist.dff_input(ff)] = 1;
    }
  }

  /// Propagates `faulty_word` forced at `site` through its fanout cone on
  /// top of `good`, one fault-free word per node (left untouched). Returns
  /// the pattern mask on which any observation point differs from its
  /// fault-free value.
  ///
  /// This and enqueue_fanouts() stay out of line on purpose: bench_ppsfp's
  /// --min-pack-speedup gate was set against them compiled as library
  /// calls. Inlined into the bench's grade loop, the serial row ran ~5%
  /// faster, which would move the gated serial/packed ratio with no change
  /// to the packed engine.
  [[gnu::noinline]] std::uint64_t propagate(
      std::span<const std::uint64_t> good, NodeId site,
      std::uint64_t faulty_word) {
    ++current_stamp_;
    if (current_stamp_ == 0) {
      // Stamp wrapped; reset lazily-invalidated arrays.
      std::fill(stamp_.begin(), stamp_.end(), 0);
      std::fill(queued_stamp_.begin(), queued_stamp_.end(), 0);
      current_stamp_ = 1;
    }

    std::uint64_t detect = 0;
    if (faulty_word == good[site]) return 0;
    stamp_[site] = current_stamp_;
    faulty_[site] = faulty_word;
    if (observe_[site]) detect |= faulty_word ^ good[site];
    enqueue_fanouts(site);

    FBT_OBS_COUNTER_ADD("sim.bitsim_faults_propagated", 1);
    std::uint64_t propagation_evals = 0;
    std::uint64_t fanin_words[8];
    std::vector<std::uint64_t> big;
    const auto faulty_value = [&](NodeId id) {
      return stamp_[id] == current_stamp_ ? faulty_[id] : good[id];
    };
    const unsigned start = is_combinational(netlist_->gate(site).type)
                               ? netlist_->level(site)
                               : 0;
    for (unsigned lvl = start; lvl < level_queue_.size(); ++lvl) {
      auto& bucket = level_queue_[lvl];
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        ++propagation_evals;
        const NodeId id = bucket[i];
        const Gate& g = netlist_->gate(id);
        const std::size_t n = g.fanins.size();
        std::uint64_t out;
        if (n <= 8) {
          for (std::size_t k = 0; k < n; ++k) {
            fanin_words[k] = faulty_value(g.fanins[k]);
          }
          out = eval_gate<std::uint64_t>(
              g.type, n, [&](std::size_t k) { return fanin_words[k]; });
        } else {
          big.clear();
          for (const NodeId f : g.fanins) big.push_back(faulty_value(f));
          out = eval_gate<std::uint64_t>(
              g.type, n, [&](std::size_t k) { return big[k]; });
        }
        if (out == good[id]) continue;  // fault effect died here
        stamp_[id] = current_stamp_;
        faulty_[id] = out;
        if (observe_[id]) detect |= out ^ good[id];
        enqueue_fanouts(id);
      }
      bucket.clear();
    }
    FBT_OBS_COUNTER_ADD("sim.bitsim_fault_gates_evaluated", propagation_evals);
    return detect;
  }

 private:
  [[gnu::noinline]] void enqueue_fanouts(NodeId id) {
    for (const NodeId out : netlist_->fanouts(id)) {
      if (!is_combinational(netlist_->gate(out).type)) continue;  // flop D
      if (queued_stamp_[out] == current_stamp_) continue;
      queued_stamp_[out] = current_stamp_;
      level_queue_[netlist_->level(out)].push_back(out);
    }
  }

  const Netlist* netlist_;
  std::vector<std::uint64_t> faulty_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t current_stamp_ = 0;
  std::vector<std::uint8_t> observe_;
  std::vector<std::vector<NodeId>> level_queue_;
  std::vector<std::uint32_t> queued_stamp_;
};

/// BroadsideFaultSim's interface over serial propagation.
class SerialFaultSim {
 public:
  explicit SerialFaultSim(const Netlist& netlist)
      : block_(netlist), prop_(netlist) {}

  /// As BroadsideFaultSim::grade.
  std::size_t grade(TestSetView tests, const TransitionFaultList& faults,
                    std::span<std::uint32_t> detect_count,
                    std::uint32_t detect_limit = 1,
                    GradeProvenance* provenance = nullptr) {
    require(detect_count.size() == faults.size(), "SerialFaultSim::grade",
            "detect_count size must equal the fault count");
    require(detect_limit >= 1, "SerialFaultSim::grade",
            "detect_limit must be >= 1");
    FBT_OBS_PHASE("grade");
    Timer grade_timer;
    if (provenance != nullptr) {
      provenance->first_hits.clear();
      provenance->blocks.clear();
    }
    std::vector<std::uint32_t> active;
    active.reserve(faults.size());
    for (std::size_t f = 0; f < faults.size(); ++f) {
      if (detect_count[f] < detect_limit) {
        active.push_back(static_cast<std::uint32_t>(f));
      }
    }
    std::size_t newly_complete = 0;
    std::size_t tests_loaded = 0;
    for (std::size_t first = 0; first < tests.size() && !active.empty();
         first += 64) {
      const std::size_t count =
          std::min<std::size_t>(64, tests.size() - first);
      block_.load(tests, first, count);
      tests_loaded += count;
      std::uint32_t block_newly = 0;
      std::size_t live = 0;
      for (const std::uint32_t f : active) {
        const std::uint64_t mask = fault_mask(faults.fault(f));
        if (mask != 0) {
          if (provenance != nullptr && detect_count[f] == 0) {
            provenance->first_hits.push_back(
                {f, static_cast<std::uint32_t>(first) +
                        static_cast<std::uint32_t>(__builtin_ctzll(mask))});
          }
          const auto hits =
              static_cast<std::uint32_t>(__builtin_popcountll(mask));
          detect_count[f] = std::min(detect_limit, detect_count[f] + hits);
          if (detect_count[f] >= detect_limit) {
            ++newly_complete;  // dropped: not carried into the next block
            ++block_newly;
            continue;
          }
        }
        active[live++] = f;
      }
      active.resize(live);
      if (provenance != nullptr) {
        provenance->blocks.push_back({static_cast<std::uint32_t>(first),
                                      static_cast<std::uint32_t>(count),
                                      block_newly});
      }
    }
    if (provenance != nullptr) {
      // Canonical order: hits come out per (block, active-list position).
      std::sort(provenance->first_hits.begin(), provenance->first_hits.end(),
                [](const FirstDetectHit& a, const FirstDetectHit& b) {
                  return a.fault < b.fault;
                });
    }
    FBT_OBS_COUNTER_ADD("fault.tests_graded", tests_loaded);
    FBT_OBS_HIST_RECORD_LOG("fault.grade_duration_ms", grade_timer.ms());
    return newly_complete;
  }

  /// As BroadsideFaultSim::detection_matrix.
  std::vector<std::vector<std::uint64_t>> detection_matrix(
      TestSetView tests, const TransitionFaultList& faults) {
    const std::size_t words = (tests.size() + 63) / 64;
    std::vector<std::vector<std::uint64_t>> matrix(
        faults.size(), std::vector<std::uint64_t>(words, 0));
    for (std::size_t first = 0; first < tests.size(); first += 64) {
      block_.load(tests, first,
                  std::min<std::size_t>(64, tests.size() - first));
      for (std::size_t f = 0; f < faults.size(); ++f) {
        matrix[f][first / 64] = fault_mask(faults.fault(f));
      }
    }
    return matrix;
  }

  /// As BroadsideFaultSim::detects.
  bool detects(const BroadsideTest& test, const TransitionFault& fault) {
    TestSet one;
    one.push_back(test);
    block_.load(one, 0, 1);
    return (fault_mask(fault) & 1ULL) != 0;
  }

 private:
  // Detection mask of `fault` over the loaded block.
  std::uint64_t fault_mask(const TransitionFault& fault) {
    const std::uint64_t active = block_.launch_mask(fault);
    if (active == 0) return 0;
    // Fault effect in frame 2: stuck at the initial value.
    const std::uint64_t forced = fault.rising ? 0 : ~0ULL;
    return active & prop_.propagate(block_.frame2(), fault.line, forced);
  }

  BroadsideBlock block_;
  SerialFaultProp prop_;
};

}  // namespace fbt::testing
