// Work-stealing job system: the single execution substrate of the repo.
//
// Replaces the fixed per-phase util/thread_pool so that many circuits and
// many experiments multiplex one set of worker threads (the serving story:
// every request's task graph shares the pool instead of spawning its own).
//
// Shape:
//  * one bounded set of worker threads, each owning a deque of ready tasks;
//    a worker pops from the back of its own deque (LIFO, cache-warm) and,
//    when empty, steals the front half of a victim's deque (FIFO, oldest
//    tasks first -- the classic steal-half discipline);
//  * tasks are handles with dependencies: submit_after() defers a task until
//    every dependency finished; a failed dependency propagates its exception
//    to dependents without running them;
//  * exception propagation: wait() rethrows the task's exception (or the
//    inherited dependency failure) on the waiting thread;
//  * waiting helps: a thread blocked in wait() executes pending tasks
//    instead of idling, so nested parallel_for from inside a task cannot
//    deadlock the pool;
//  * determinism: the scheduler never influences results -- parallel users
//    (fault-grading shards, flow task graphs) partition work by index and
//    merge by index, so any interleaving produces bit-identical output
//    (pinned by tests/bist/attribution_identity_test.cpp and
//    tests/serve/server_test.cpp).
//
// Observability: jobs.submitted / jobs.executed / jobs.steals counters plus,
// when FBT_OBS is on, cross-worker trace propagation (submit_after captures
// the submitter's obs::TraceContext and event journal and re-enters both on
// the executing thread -- shielding the task from the open spans and
// JournalScope of a waiter that helps by running it -- with a Chrome flow
// arrow from submit site to run site), per-worker busy
// time, queue-depth gauges, and steal-latency / run-time histograms. The
// always-on counters are plain relaxed atomics; everything involving a clock
// read compiles away under FBT_OBS=OFF.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#ifndef FBT_OBS_ENABLED
#define FBT_OBS_ENABLED 1
#endif

#if FBT_OBS_ENABLED
#include "obs/event_journal.hpp"
#include "obs/phase.hpp"
#endif

namespace fbt::jobs {

namespace detail {

/// Shared completion state of one task. Lifetime is managed by shared_ptr:
/// the queue, the handle, and dependent tasks may all hold references.
struct TaskState {
  std::function<void()> fn;
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;                 ///< guarded by mutex
  std::exception_ptr error;          ///< set before done, guarded by mutex
  std::exception_ptr dep_error;      ///< first failed dependency, guarded
  std::vector<std::shared_ptr<TaskState>> dependents;  ///< guarded by mutex
  /// Unfinished dependencies + 1 submission guard; the task is enqueued when
  /// this reaches zero.
  std::atomic<int> pending{1};
#if FBT_OBS_ENABLED
  /// Submitter's trace position and event journal, captured at submit time
  /// and re-entered (obs::TaskTraceScope, obs::JournalScope) around fn() on
  /// the executing thread -- written before the task becomes reachable by
  /// any worker, read-only afterwards. The submitter waits for its tasks, so
  /// the journal outlives them.
  obs::TraceContext trace{};
  obs::EventJournal* journal = nullptr;
  std::uint64_t flow_id = 0;    ///< Chrome flow-arrow id (submit -> run)
  std::uint64_t submit_us = 0;  ///< trace-epoch time of the submit site
  std::uint32_t submit_tid = 0;  ///< trace tid of the submitting thread
#endif
};

}  // namespace detail

/// Point-in-time scheduler telemetry (see JobSystem::scheduler_snapshot).
/// Counters are lifetime totals for this pool; busy/utilization cover the
/// span from construction to the snapshot. Under FBT_OBS=OFF the busy-time
/// instrumentation compiles away, so busy_ms and utilization read 0.
struct SchedulerSnapshot {
  std::size_t workers = 0;
  std::size_t queue_depth = 0;  ///< tasks queued, not yet started
  std::uint64_t submitted = 0;
  std::uint64_t executed = 0;
  std::uint64_t steals = 0;
  double busy_ms = 0.0;     ///< summed across workers
  double elapsed_ms = 0.0;  ///< wall time since pool construction
  double utilization = 0.0;  ///< busy / (workers * elapsed), in [0, 1]
};

/// Opaque reference to a submitted task. Default-constructed handles are
/// inert (valid() == false); wait() on them returns immediately.
class TaskHandle {
 public:
  TaskHandle() = default;
  bool valid() const { return state_ != nullptr; }
  /// True once the task (or its dependency-failure short-circuit) finished.
  bool done() const;

 private:
  friend class JobSystem;
  explicit TaskHandle(std::shared_ptr<detail::TaskState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::TaskState> state_;
};

class JobSystem {
 public:
  /// `num_threads` = 0 selects std::thread::hardware_concurrency().
  explicit JobSystem(std::size_t num_threads = 0);
  ~JobSystem();
  JobSystem(const JobSystem&) = delete;
  JobSystem& operator=(const JobSystem&) = delete;

  /// Number of worker threads (>= 1).
  std::size_t size() const { return queues_.size(); }

  /// Maps a requested worker count to an actual one: 0 becomes
  /// hardware_concurrency() (or 1 when that is unknown).
  static std::size_t resolve_threads(std::size_t requested);

  /// Schedules `fn` for execution. The handle outlives the system only as an
  /// inert token; wait on it before destroying the JobSystem.
  TaskHandle submit(std::function<void()> fn);

  /// Schedules `fn` to run after every task in `deps` finished. If a
  /// dependency finished with an exception, `fn` is not run and the handle
  /// carries that exception instead.
  TaskHandle submit_after(const std::vector<TaskHandle>& deps,
                          std::function<void()> fn);

  /// Blocks until `handle` finished, executing pending tasks while waiting
  /// (from worker and external threads alike). Rethrows the task's
  /// exception. No-op for invalid handles.
  void wait(const TaskHandle& handle);

  /// Waits on every handle; rethrows the first (by index) exception after
  /// all finished.
  void wait_all(const std::vector<TaskHandle>& handles);

  /// Executes task(i) for every i in [0, num_tasks) across the pool and the
  /// calling thread; blocks until all finished and rethrows the first (by
  /// index) exception. Runs inline when the pool has one worker or
  /// num_tasks <= 1, preserving the serial reference path exactly.
  void parallel_for(std::size_t num_tasks,
                    const std::function<void(std::size_t)>& task);

  /// Current scheduler telemetry for this pool. Cheap (relaxed atomic loads
  /// only) and safe to call concurrently with running work -- the serve
  /// daemon calls it per `stats` request, the run report once at exit.
  SchedulerSnapshot scheduler_snapshot() const;

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::shared_ptr<detail::TaskState>> tasks;
  };

  void worker_loop(std::size_t index);
  void enqueue(std::shared_ptr<detail::TaskState> state);
  /// Runs one ready task on the calling thread: own queue first (workers),
  /// then stealing. Returns false when every queue was empty.
  bool try_execute_one();
  void execute(const std::shared_ptr<detail::TaskState>& state);
  void complete(const std::shared_ptr<detail::TaskState>& state,
                std::exception_ptr error);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;  // one per worker
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> submit_cursor_{0};  ///< round-robin for externals
  std::atomic<std::size_t> ready_count_{0};    ///< queued, not yet started
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  bool stop_ = false;  ///< guarded by idle_mutex_

  // Telemetry (scheduler_snapshot). The lifetime counters are always-on
  // relaxed atomics; busy-time accounting needs a clock read per task and is
  // compiled away under FBT_OBS=OFF.
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::chrono::steady_clock::time_point start_;
#if FBT_OBS_ENABLED
  /// Per-worker (+1 slot for external helpers) microseconds spent in fn().
  std::unique_ptr<std::atomic<std::uint64_t>[]> busy_us_;
#endif
};

/// The process-wide pool (hardware_concurrency workers, created on first
/// use). Batch entry points default to it; servers may size their own.
JobSystem& global_jobs();

}  // namespace fbt::jobs
