// Ordered map over the job pool: fn(i) for every i < n runs in
// parallel_for's caller-driven lanes, and the results and event journals
// come back in index order, as a serial loop over i would produce them. fn
// may itself call run_in_order on the same pool (a row's calibration inside
// a table row): a lane only ever runs its own caller's indices, so one row
// never runs nested inside another. Used by the paper-table row runner, the
// Det tree of state-holding selection and the SWA_func calibration.
#pragma once

#include <cstddef>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "jobs/job_system.hpp"
#include "obs/event_journal.hpp"

namespace fbt::jobs {

/// Runs fn(i) for every i < n through pool.parallel_for, each under its own
/// obs::JournalScope, and returns the results in index order after appending
/// the per-index journals to the caller's journal in index order. fn must
/// not depend on the order in which indices run. Indices run last first:
/// callers that know their costs put the longest last, so it does not form
/// the tail.
template <typename Fn>
auto run_in_order(JobSystem& pool, std::size_t n, Fn fn) {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<std::optional<R>> slots(n);
  std::vector<obs::EventJournal> journals(n);
  pool.parallel_for(n, [&](std::size_t i) {
    const obs::JournalScope scope(journals[i]);
    slots[i].emplace(fn(i));
  });
  std::vector<R> results;
  results.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    obs::journal().append(journals[i]);
    results.push_back(std::move(*slots[i]));
  }
  return results;
}

}  // namespace fbt::jobs
