#include "atpg/tpdf_engine.hpp"

#include <algorithm>

#include "fault/fault_sim.hpp"
#include "obs/instrument.hpp"
#include "util/timer.hpp"

namespace fbt {

TpdfEngine::TpdfEngine(const Netlist& netlist, const TpdfEngineConfig& config)
    : netlist_(&netlist),
      config_(config),
      rng_(config.rng_seed, 0x5851f42d4c957f2dULL) {
  tf_status_.assign(2 * netlist.size(), TfStatus::kUnknown);
  PodemConfig cfg = config_.tf_atpg;
  cfg.rng_seed = rng_.next64();
  tf_engine_ = std::make_unique<PodemEngine>(netlist, cfg);
}

void TpdfEngine::run_transition_fault_atpg(
    const std::vector<std::vector<TransitionFault>>& per_path,
    TpdfRunReport& report) {
  FBT_OBS_PHASE("tf_atpg");
  Timer timer;
  for (const auto& trs : per_path) {
    for (const TransitionFault& tf : trs) {
      if (tf_status(tf) != TfStatus::kUnknown) continue;
      const PodemOutcome outcome = tf_engine_->generate(tf);
      switch (outcome.status) {
        case PodemStatus::kDetected:
          tf_status(tf) = TfStatus::kHasTest;
          tf_tests_.push_back(tf_engine_->extract_test());
          break;
        case PodemStatus::kUndetectable:
          tf_status(tf) = TfStatus::kUndetectable;
          break;
        case PodemStatus::kAborted:
          tf_status(tf) = TfStatus::kAborted;
          break;
      }
    }
  }
  report.seconds_tf_atpg = timer.seconds();
}

bool TpdfEngine::heuristic_attempts(const std::vector<TransitionFault>& trs,
                                    const std::vector<Assignment>& preassign,
                                    TpdfRunReport& report) {
  // Fig. 2.2 bookkeeping.
  std::vector<std::size_t> failures(trs.size(), 0);
  std::vector<std::uint8_t> used(trs.size(), 0);

  PodemConfig cfg = config_.heuristic;
  cfg.rng_seed = rng_.next64();
  PodemEngine engine(*netlist_, cfg);

  for (std::size_t attempt = 0; attempt < config_.heuristic_attempts;
       ++attempt) {
    // Primary target: random among unused faults with the highest failure
    // count.
    std::size_t best_failures = 0;
    std::vector<std::size_t> candidates;
    for (std::size_t k = 0; k < trs.size(); ++k) {
      if (used[k]) continue;
      if (failures[k] > best_failures) {
        best_failures = failures[k];
        candidates.clear();
      }
      if (failures[k] == best_failures) candidates.push_back(k);
    }
    if (candidates.empty()) return false;  // every fault is marked used
    const std::size_t primary =
        candidates[rng_.below(static_cast<std::uint32_t>(candidates.size()))];

    engine.reset();
    if (!engine.preassign(preassign)) return false;
    if (engine.target(trs[primary], /*backtrack_into_earlier=*/true).status !=
        PodemStatus::kDetected) {
      // The primary could not be detected even with full freedom: give up on
      // this fault for the heuristic phase (Fig. 2.2 "stop attempting").
      return false;
    }

    // Secondary targets in decreasing failure count (random tie-break).
    std::vector<std::size_t> order;
    for (std::size_t k = 0; k < trs.size(); ++k) {
      if (k != primary) order.push_back(k);
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return failures[a] > failures[b];
    });

    bool all_detected = true;
    for (std::size_t s = 0; s < order.size(); ++s) {
      const std::size_t k = order[s];
      const PodemOutcome out =
          engine.target(trs[k], /*backtrack_into_earlier=*/false);
      if (out.status == PodemStatus::kDetected) continue;
      ++failures[k];
      if (s == 0) used[primary] = 1;  // first secondary failed: primary "used"
      all_detected = false;
      break;
    }
    if (all_detected) {
      report.tests.push_back(engine.extract_test());
      return true;
    }
  }
  return false;
}

TpdfRunReport TpdfEngine::run(const std::vector<PathDelayFault>& faults) {
  TpdfRunReport report;
  report.num_faults = faults.size();
  report.per_fault.assign(faults.size(), {});

  // Phase 1: transition-fault ATPG, lazily over the lines this batch's paths
  // touch (earlier batches' results are cached and their tests retained).
  std::vector<std::vector<TransitionFault>> trs(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    trs[i] = transition_faults_along(*netlist_, faults[i]);
  }
  run_transition_fault_atpg(trs, report);
  report.tests = tf_tests_;

  // Phase 2: preprocessing.
  std::vector<std::vector<Assignment>> stored_inputs(faults.size());
  std::vector<std::size_t> pending;
  {
    FBT_OBS_PHASE("preprocess");
    Timer timer;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const bool any_undet =
          std::any_of(trs[i].begin(), trs[i].end(),
                      [&](const TransitionFault& tf) {
                        return tf_undetectable(tf);
                      });
      if (any_undet) {
        report.per_fault[i] = {TpdfStatus::kUndetectable,
                               TpdfPhase::kPreprocessing};
        continue;
      }
      NecessaryAnalysis na =
          necessary_for_path(*netlist_, faults[i], /*probe_rounds=*/1);
      if (na.undetectable) {
        report.per_fault[i] = {TpdfStatus::kUndetectable,
                               TpdfPhase::kPreprocessing};
        continue;
      }
      stored_inputs[i] = std::move(na.input_assignments);
      pending.push_back(i);
    }
    report.seconds_preprocessing = timer.seconds();
  }
  report.detectable_upper_bound = pending.size();

  // Phase 3: fault simulation of the transition-fault tests under the
  // pending TPDFs. A test detects the TPDF iff it detects every transition
  // fault along the path.
  {
    FBT_OBS_PHASE("fsim");
    Timer timer;
    if (!tf_tests_.empty() && !pending.empty()) {
      // Unique transition faults across all pending paths.
      std::vector<TransitionFault> unique_list;
      {
        std::vector<std::uint8_t> seen(2 * netlist_->size(), 0);
        for (const std::size_t i : pending) {
          for (const TransitionFault& tf : trs[i]) {
            auto& flag = seen[2 * tf.line + (tf.rising ? 0 : 1)];
            if (!flag) {
              flag = 1;
              unique_list.push_back(tf);
            }
          }
        }
      }
      const TransitionFaultList unique_tfs =
          TransitionFaultList::from_faults(std::move(unique_list));
      BroadsideFaultSim fsim(*netlist_);
      const auto matrix = fsim.detection_matrix(tf_tests_, unique_tfs);
      std::vector<std::size_t> index(2 * netlist_->size(),
                                     TransitionFaultList::npos);
      for (std::size_t k = 0; k < unique_tfs.size(); ++k) {
        const TransitionFault& tf = unique_tfs.fault(k);
        index[2 * tf.line + (tf.rising ? 0 : 1)] = k;
      }
      std::vector<std::size_t> still_pending;
      const std::size_t words = (tf_tests_.size() + 63) / 64;
      std::vector<std::uint64_t> acc(words);
      for (const std::size_t i : pending) {
        std::fill(acc.begin(), acc.end(), ~0ULL);
        for (const TransitionFault& tf : trs[i]) {
          const auto& row = matrix[index[2 * tf.line + (tf.rising ? 0 : 1)]];
          for (std::size_t w = 0; w < words; ++w) acc[w] &= row[w];
        }
        const bool hit = std::any_of(acc.begin(), acc.end(),
                                     [](std::uint64_t w) { return w != 0; });
        if (hit) {
          report.per_fault[i] = {TpdfStatus::kDetected, TpdfPhase::kFaultSim};
          ++report.detected_fsim;
        } else {
          still_pending.push_back(i);
        }
      }
      pending = std::move(still_pending);
    }
    report.seconds_fsim = timer.seconds();
  }

  // Phase 4: dynamic-compaction heuristic.
  {
    FBT_OBS_PHASE("heuristic");
    Timer timer;
    std::vector<std::size_t> still_pending;
    for (const std::size_t i : pending) {
      if (heuristic_attempts(trs[i], stored_inputs[i], report)) {
        report.per_fault[i] = {TpdfStatus::kDetected, TpdfPhase::kHeuristic};
        ++report.detected_heuristic;
      } else {
        still_pending.push_back(i);
      }
    }
    pending = std::move(still_pending);
    report.seconds_heuristic = timer.seconds();
  }

  // Phase 5: complete branch-and-bound.
  {
    FBT_OBS_PHASE("bnb");
    Timer timer;
    PodemConfig cfg = config_.branch_and_bound;
    cfg.rng_seed = rng_.next64();
    PodemEngine engine(*netlist_, cfg);
    for (const std::size_t i : pending) {
      engine.reset();
      if (!engine.preassign(stored_inputs[i])) {
        report.per_fault[i] = {TpdfStatus::kUndetectable,
                               TpdfPhase::kBranchBound};
        continue;
      }
      const PodemOutcome out =
          engine.solve(trs[i], /*backtrack_into_earlier=*/true);
      switch (out.status) {
        case PodemStatus::kDetected:
          report.per_fault[i] = {TpdfStatus::kDetected,
                                 TpdfPhase::kBranchBound};
          ++report.detected_bnb;
          report.tests.push_back(engine.extract_test());
          break;
        case PodemStatus::kUndetectable:
          report.per_fault[i] = {TpdfStatus::kUndetectable,
                                 TpdfPhase::kBranchBound};
          break;
        case PodemStatus::kAborted:
          report.per_fault[i] = {TpdfStatus::kAborted, TpdfPhase::kBranchBound};
          break;
      }
    }
    report.seconds_bnb = timer.seconds();
  }

  for (const TpdfFaultReport& r : report.per_fault) {
    switch (r.status) {
      case TpdfStatus::kDetected: ++report.detected; break;
      case TpdfStatus::kUndetectable: ++report.undetectable; break;
      case TpdfStatus::kAborted: ++report.aborted; break;
    }
  }
  return report;
}

}  // namespace fbt
