#include "jobs/job_system.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/instrument.hpp"
#include "obs/metrics.hpp"

namespace fbt::jobs {
namespace {

// The CI container may report a single core, which would collapse every
// parallel path to the inline one -- tests that exercise scheduling size the
// pool explicitly.
constexpr std::size_t kPool = 4;

TEST(JobSystem, ResolveThreadsMapsZeroToHardware) {
  EXPECT_GE(JobSystem::resolve_threads(0), 1u);
  EXPECT_EQ(JobSystem::resolve_threads(3), 3u);
  EXPECT_EQ(JobSystem::resolve_threads(1), 1u);
}

TEST(JobSystem, SubmitRunsAndWaitBlocks) {
  JobSystem jobs(kPool);
  std::atomic<int> ran{0};
  const TaskHandle h = jobs.submit([&] { ran.fetch_add(1); });
  EXPECT_TRUE(h.valid());
  jobs.wait(h);
  EXPECT_EQ(ran.load(), 1);
  EXPECT_TRUE(h.done());
}

TEST(JobSystem, InvalidHandleWaitIsNoop) {
  JobSystem jobs(kPool);
  TaskHandle inert;
  EXPECT_FALSE(inert.valid());
  jobs.wait(inert);  // must not hang or throw
}

TEST(JobSystem, ParallelForCoversEveryIndexExactlyOnce) {
  JobSystem jobs(kPool);
  constexpr std::size_t kN = 997;  // odd, not a multiple of the pool size
  std::vector<std::atomic<int>> hits(kN);
  jobs.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(JobSystem, SingleWorkerParallelForRunsInline) {
  JobSystem jobs(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  jobs.parallel_for(seen.size(),
                    [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

TEST(JobSystem, ExceptionRethrownOnWait) {
  JobSystem jobs(kPool);
  const TaskHandle h =
      jobs.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(jobs.wait(h), std::runtime_error);
  // A second wait on the same handle rethrows again (the state is sticky).
  EXPECT_THROW(jobs.wait(h), std::runtime_error);
}

TEST(JobSystem, ParallelForRethrowsFirstByIndex) {
  JobSystem jobs(kPool);
  try {
    jobs.parallel_for(64, [](std::size_t i) {
      if (i == 7) throw std::runtime_error("seven");
      if (i == 31) throw std::logic_error("thirty-one");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "seven");
  }
}

TEST(JobSystem, NestedParallelForDoesNotDeadlock) {
  // More outer indices than workers, each nesting an inner parallel_for:
  // with every worker inside an outer lane the inner helpers stay queued,
  // and each inner caller must finish its indices alone.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, kPool}) {
    JobSystem jobs(workers);
    std::atomic<int> inner_total{0};
    jobs.parallel_for(workers * 3, [&](std::size_t) {
      jobs.parallel_for(16, [&](std::size_t) { inner_total.fetch_add(1); });
    });
    EXPECT_EQ(inner_total.load(), static_cast<int>(workers * 3 * 16))
        << workers << " workers";
  }
}

// Outer indices the current thread is inside of.
thread_local int outer_depth = 0;

TEST(JobSystem, NoThreadHoldsTwoOuterIndicesAtOnce) {
  // A thread waiting inside an outer index must never start another outer
  // index nested inside it (a table row inside a row). The inner sleeps
  // leave every lane waiting on inner work while outer indices remain.
  JobSystem jobs(kPool);
  std::atomic<int> deepest{0};
  jobs.parallel_for(kPool * 4, [&](std::size_t) {
    const int depth = ++outer_depth;
    int seen = deepest.load();
    while (depth > seen && !deepest.compare_exchange_weak(seen, depth)) {
    }
    jobs.parallel_for(kPool * 2, [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    --outer_depth;
  });
  EXPECT_EQ(deepest.load(), 1);
}

TEST(JobSystem, LateHelperRunsNothing) {
  // Every worker is blocked, so parallel_for's helper lanes stay queued:
  // the caller must run all indices alone and return without waiting for
  // them. Released afterwards, the helpers find the lanes closed.
  JobSystem jobs(kPool);
  std::atomic<std::size_t> blocked{0};
  std::atomic<bool> release{false};
  std::vector<TaskHandle> blockers;
  for (std::size_t w = 0; w < kPool; ++w) {
    blockers.push_back(jobs.submit([&] {
      blocked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    }));
  }
  while (blocked.load() < kPool) std::this_thread::yield();

  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> calls{0};
  std::atomic<int> off_caller{0};
  jobs.parallel_for(8, [&](std::size_t) {
    calls.fetch_add(1);
    if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 8);
  EXPECT_EQ(jobs.scheduler_snapshot().queue_depth, kPool - 1);

  release.store(true);
  for (const TaskHandle& h : blockers) jobs.wait(h);
  for (SchedulerSnapshot s = jobs.scheduler_snapshot(); s.executed < s.submitted;
       s = jobs.scheduler_snapshot()) {
    std::this_thread::yield();  // the released workers drain the helpers
  }
  EXPECT_EQ(calls.load(), 8);
  EXPECT_EQ(off_caller.load(), 0);
}

TEST(JobSystem, WaitOnAWorkerOfThePoolThrows) {
  JobSystem jobs(kPool);
  const TaskHandle inner = jobs.submit([] {});
  std::atomic<bool> refused{false};
  const TaskHandle outer = jobs.submit([&] {
    try {
      jobs.wait(inner);
    } catch (const std::logic_error&) {
      refused.store(true);
    }
  });
  jobs.wait(outer);
  jobs.wait(inner);
  EXPECT_TRUE(refused.load());
}

TEST(JobSystem, StressManySmallTasks) {
  JobSystem jobs(kPool);
  constexpr int kTasks = 5000;
  std::atomic<long> total{0};
  std::vector<TaskHandle> handles;
  handles.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    handles.push_back(jobs.submit([&total, i] { total.fetch_add(i); }));
  }
  for (const TaskHandle& h : handles) jobs.wait(h);
  EXPECT_EQ(total.load(), static_cast<long>(kTasks) * (kTasks - 1) / 2);
}

#if FBT_OBS_ENABLED
TEST(JobSystem, CountersTrackSubmissionAndExecution) {
  obs::registry().reset();
  {
    JobSystem jobs(kPool);
    std::vector<TaskHandle> handles;
    for (int i = 0; i < 100; ++i) handles.push_back(jobs.submit([] {}));
    for (const TaskHandle& h : handles) jobs.wait(h);
  }
  const std::uint64_t submitted =
      obs::registry().counter("jobs.submitted").value();
  const std::uint64_t executed =
      obs::registry().counter("jobs.executed").value();
  EXPECT_GE(submitted, 100u);
  EXPECT_EQ(executed, submitted);
}
#endif

TEST(JobSystem, SchedulerSnapshotTracksLifetimeTotals) {
  JobSystem jobs(kPool);
  const SchedulerSnapshot before = jobs.scheduler_snapshot();
  EXPECT_EQ(before.workers, kPool);
  EXPECT_EQ(before.submitted, 0u);
  EXPECT_EQ(before.executed, 0u);

  constexpr int kTasks = 200;
  std::atomic<int> ran{0};
  std::vector<TaskHandle> handles;
  for (int i = 0; i < kTasks; ++i) {
    handles.push_back(jobs.submit([&ran] { ran.fetch_add(1); }));
  }
  for (const TaskHandle& h : handles) jobs.wait(h);

  const SchedulerSnapshot after = jobs.scheduler_snapshot();
  EXPECT_EQ(after.workers, kPool);
  EXPECT_EQ(after.submitted, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(after.executed, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(after.queue_depth, 0u);
  EXPECT_GT(after.elapsed_ms, 0.0);
  // Utilization is bounded even when busy-time accounting is compiled out
  // (it reads 0 under FBT_OBS=OFF).
  EXPECT_GE(after.utilization, 0.0);
  EXPECT_LE(after.utilization, 1.0);
#if FBT_OBS_ENABLED
  EXPECT_GE(after.busy_ms, 0.0);
#else
  EXPECT_EQ(after.busy_ms, 0.0);
#endif
}

}  // namespace
}  // namespace fbt::jobs
