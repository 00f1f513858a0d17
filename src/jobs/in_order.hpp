// Ordered map over the job pool: fn(i) for every i < n runs concurrently,
// and the results and event journals come back in index order, as a serial
// loop over i would produce them. Used by the paper-table row runner, the
// Det tree of state-holding selection and the SWA_func calibration.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "jobs/job_system.hpp"
#include "obs/event_journal.hpp"

namespace fbt::jobs {

/// Runs fn(i) for every i < n on `pool`, each under its own
/// obs::JournalScope, and returns the results in index order after appending
/// the per-index journals to the caller's journal in index order. fn must
/// not depend on the order in which indices run.
///
/// parallel_for runs one lane per worker, and each lane takes the next
/// unstarted index until none is left. One task per index would leave
/// indices queued, and a thread waiting inside fn(i) (a flow task graph, a
/// nested run_in_order) helps by running queued tasks: it would start a
/// queued index nested inside its own, and the suspended one could only
/// finish after the nested one (Table 4.3 took 50 s that way against 80 s
/// serially on 4 vCPUs). Lanes take indices from the last one backwards:
/// callers that know their costs put the longest last, so it does not form
/// the tail.
template <typename Fn>
auto run_in_order(JobSystem& pool, std::size_t n, Fn fn) {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<std::optional<R>> slots(n);
  std::vector<obs::EventJournal> journals(n);
  std::atomic<std::size_t> started{0};
  pool.parallel_for(std::min(n, pool.size()), [&](std::size_t) {
    for (std::size_t k; (k = started.fetch_add(1)) < n;) {
      const std::size_t i = n - 1 - k;
      const obs::JournalScope scope(journals[i]);
      slots[i].emplace(fn(i));
    }
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
