#include "bist/state_holding.hpp"

#include <algorithm>
#include <string>

#include "jobs/in_order.hpp"
#include "jobs/job_system.hpp"
#include "obs/instrument.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace fbt {
namespace {

struct TreeNode {
  std::vector<std::size_t> set;  ///< flop indices
  std::size_t det = 0;
  /// After the bottom-up pass: the non-overlapping partition this node
  /// contributes (either {set} or the concatenation of its children's
  /// partitions, with empty subsets removed).
  std::vector<std::vector<std::size_t>> partition;
};

/// Measures Det(set): number of residual faults detected by a cheap
/// construction run holding `set`. Works on a scratch copy of detect_count
/// and keeps no tests, so concurrent measures hold little memory.
std::size_t measure_det(const Netlist& netlist,
                        const TransitionFaultList& faults,
                        const std::vector<std::uint32_t>& baseline,
                        const FunctionalBistConfig& eval_cfg,
                        unsigned h, const std::vector<std::size_t>& set,
                        std::uint64_t rng_seed) {
  if (set.empty()) return 0;
  FunctionalBistConfig cfg = eval_cfg;
  cfg.hold_period_log2 = h;
  cfg.hold_set = set;
  cfg.rng_seed = rng_seed;
  std::vector<std::uint32_t> scratch = baseline;
  FunctionalBistGenerator generator(netlist, cfg);
  return generator.count_new_detections(faults, scratch);
}

}  // namespace

HoldSelectionResult select_and_run_hold_sets(
    const Netlist& netlist, const TransitionFaultList& faults,
    std::vector<std::uint32_t>& detect_count, const HoldSelectionConfig& config,
    std::uint64_t rng_seed) {
  return select_and_run_hold_sets(netlist, faults, detect_count, config,
                                  rng_seed, jobs::global_jobs());
}

HoldSelectionResult select_and_run_hold_sets(
    const Netlist& netlist, const TransitionFaultList& faults,
    std::vector<std::uint32_t>& detect_count, const HoldSelectionConfig& config,
    std::uint64_t rng_seed, jobs::JobSystem& pool) {
  require(config.hold_period_log2 >= 1, "select_and_run_hold_sets",
          "h must be >= 1");
  require(config.tree_height <= kMaxHoldTreeHeight, "select_and_run_hold_sets",
          "tree height H must be <= " + std::to_string(kMaxHoldTreeHeight));
  require(detect_count.size() == faults.size(), "select_and_run_hold_sets",
          "detect_count size must equal the fault count");

  HoldSelectionResult out;
  const std::size_t nff = netlist.num_flops();
  if (nff == 0) return out;
  FBT_OBS_PHASE("hold");

  Pcg32 rng(rng_seed, 0x14057b7ef767814fULL);

  // Build the full binary tree of height H by random halving (Fig. 4.12).
  // Level l has 2^l nodes; node (l, j) has children (l+1, 2j) and (l+1, 2j+1).
  const unsigned height = config.tree_height;
  std::vector<std::vector<TreeNode>> tree(height + 1);
  tree[0].resize(1);
  tree[0][0].set.resize(nff);
  for (std::size_t i = 0; i < nff; ++i) tree[0][0].set[i] = i;
  for (unsigned l = 0; l < height; ++l) {
    tree[l + 1].resize(std::size_t{2} << l);
    for (std::size_t j = 0; j < tree[l].size(); ++j) {
      std::vector<std::size_t> shuffled = tree[l][j].set;
      for (std::size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1],
                  shuffled[rng.below(static_cast<std::uint32_t>(i))]);
      }
      const std::size_t half = shuffled.size() / 2;
      tree[l + 1][2 * j].set.assign(shuffled.begin(), shuffled.begin() + half);
      tree[l + 1][2 * j + 1].set.assign(shuffled.begin() + half,
                                        shuffled.end());
      std::sort(tree[l + 1][2 * j].set.begin(), tree[l + 1][2 * j].set.end());
      std::sort(tree[l + 1][2 * j + 1].set.begin(),
                tree[l + 1][2 * j + 1].set.end());
    }
  }

  // Det for every node, measured against the residual fault set. The seeds
  // are drawn in (level, node) order, as a serial loop over the nodes would
  // draw them; the runs then share only read-only inputs, so they go to the
  // pool, and their results and journals come back in that order.
  const std::vector<std::uint32_t> baseline = detect_count;
  std::vector<TreeNode*> nodes;
  std::vector<std::uint64_t> det_seeds;
  for (unsigned l = 0; l <= height; ++l) {
    for (TreeNode& node : tree[l]) {
      nodes.push_back(&node);
      det_seeds.push_back(rng.next64());
    }
  }
  {
    FBT_OBS_PHASE("select");
    const std::vector<std::size_t> dets =
        jobs::run_in_order(pool, nodes.size(), [&](std::size_t i) {
          return measure_det(netlist, faults, baseline, config.eval,
                             config.hold_period_log2, nodes[i]->set,
                             det_seeds[i]);
        });
    for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i]->det = dets[i];
  }

  // Bottom-up partition decision: split a node when holding its halves
  // separately detects at least as much as holding it whole.
  for (std::size_t j = 0; j < tree[height].size(); ++j) {
    TreeNode& leaf = tree[height][j];
    if (leaf.det > 0 && !leaf.set.empty()) leaf.partition = {leaf.set};
  }
  for (unsigned l = height; l-- > 0;) {
    for (std::size_t j = 0; j < tree[l].size(); ++j) {
      TreeNode& node = tree[l][j];
      const TreeNode& left = tree[l + 1][2 * j];
      const TreeNode& right = tree[l + 1][2 * j + 1];
      const std::size_t child_best = std::max(left.det, right.det);
      if (node.det <= child_best) {
        node.partition = left.partition;
        node.partition.insert(node.partition.end(), right.partition.begin(),
                              right.partition.end());
        node.det = child_best;
      } else if (node.det > 0 && !node.set.empty()) {
        node.partition = {node.set};
      }
    }
  }

  // Final selection: commit each candidate subset whose full construction run
  // detects additional residual faults, accumulating detection credit.
  FBT_OBS_PHASE("commit");
  for (const auto& subset : tree[0][0].partition) {
    FunctionalBistConfig cfg = config.commit;
    cfg.hold_period_log2 = config.hold_period_log2;
    cfg.hold_set = subset;
    cfg.rng_seed = rng.next64();
    std::vector<std::uint32_t> trial = detect_count;
    FunctionalBistGenerator generator(netlist, cfg);
    FunctionalBistResult result = generator.run(faults, trial);
    if (result.newly_detected == 0) continue;
    detect_count = std::move(trial);
    out.total_held_flops += subset.size();
    out.num_sequences += result.sequences.size();
    out.nseg_max = std::max(out.nseg_max, result.nseg_max);
    out.lmax = std::max(out.lmax, result.lmax);
    out.num_seeds += result.num_seeds;
    out.num_tests += result.num_tests;
    out.peak_swa = std::max(out.peak_swa, result.peak_swa);
    out.newly_detected += result.newly_detected;
    out.selected.push_back({subset, std::move(result)});
  }
  return out;
}

}  // namespace fbt
