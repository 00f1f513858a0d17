// Job pool: the single execution substrate of the repo.
//
// One primitive, caller-driven lanes. parallel_for(n, fn) posts up to
// min(n, size()) - 1 helper lanes to the pool's FIFO and runs the lane loop
// on the calling thread. Every lane takes the next index from one shared
// counter, last index first, until none is left; the caller returns once
// the indices are used up and no helper that started is still running. A
// helper that starts later finds nothing and exits.
//
// No thread runs a task it did not post: workers run queued tasks only from
// their own loop, and a caller never runs anything but its own lane. A
// caller finishes alone when the pool is saturated, so nested parallel_for
// can neither deadlock nor start a foreign index inside its own.
//
// submit()/wait() carry the serve daemon's one task per request. wait()
// blocks without running other tasks and is refused on a worker of the same
// pool, whose blocking could leave the task it waits for queued behind it.
//
// Determinism: the scheduler never influences results. Parallel users
// partition work by index and merge by index (jobs::run_in_order), so any
// interleaving produces bit-identical output (pinned by
// tests/bist/pool_identity_test.cpp and tests/serve/server_test.cpp).
//
// Observability: jobs.submitted / jobs.executed counters (one per queued
// task: a submit() or a helper lane) plus, when FBT_OBS is on, trace
// propagation (each queued task carries its poster's obs::TraceContext and
// event journal, and the worker re-enters both around it, with a Chrome
// flow arrow from post site to run site), per-worker busy time, the
// queue-depth gauge and the run-time histogram.
// The counters are plain relaxed atomics; everything involving a clock read
// compiles away under FBT_OBS=OFF.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fbt::jobs {

namespace detail {
struct TaskState;  // job_system.cpp
}  // namespace detail

/// Point-in-time scheduler telemetry (see JobSystem::scheduler_snapshot).
/// Counters are lifetime totals for this pool; busy/utilization cover the
/// span from construction to the snapshot. Under FBT_OBS=OFF the busy-time
/// instrumentation compiles away, so busy_ms and utilization read 0.
struct SchedulerSnapshot {
  std::size_t workers = 0;
  std::size_t queue_depth = 0;  ///< tasks queued, not yet started
  std::uint64_t submitted = 0;
  std::uint64_t executed = 0;  ///< taken off the queue by a worker
  std::uint64_t steals = 0;  ///< always 0: the pool has no stealing
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
  /// True once the task finished.
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
  std::size_t size() const { return workers_.size(); }

  /// Maps a requested worker count to an actual one: 0 becomes
  /// hardware_concurrency() (or 1 when that is unknown).
  static std::size_t resolve_threads(std::size_t requested);

  /// Queues `fn` for a worker. The handle outlives the system only as an
  /// inert token; wait on it before destroying the JobSystem.
  TaskHandle submit(std::function<void()> fn);

  /// Blocks until `handle` finished and rethrows the task's exception.
  /// No-op for invalid handles. Throws std::logic_error on a worker of this
  /// pool.
  void wait(const TaskHandle& handle);

  /// Runs task(i) for every i in [0, num_tasks) in caller-driven lanes (see
  /// the file comment), last index first; returns once every index ran and
  /// rethrows the exception of the lowest failed index.
  void parallel_for(std::size_t num_tasks,
                    const std::function<void(std::size_t)>& task);

  /// Current scheduler telemetry for this pool. Cheap and safe to call
  /// concurrently with running work -- the serve daemon calls it per `stats`
  /// request, the run report once at exit.
  SchedulerSnapshot scheduler_snapshot() const;

 private:
  /// Queues `work` for the next idle worker. Posted work catches its own
  /// exceptions.
  void post(std::function<void()> work);
  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  ///< FIFO, guarded by mutex_
  bool stop_ = false;  ///< guarded by mutex_

  // Telemetry (scheduler_snapshot). The lifetime counters are always-on
  // relaxed atomics; busy-time accounting needs a clock read per task and is
  // compiled away under FBT_OBS=OFF.
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::chrono::steady_clock::time_point start_;
  /// Per-worker microseconds spent in tasks (stays 0 under FBT_OBS=OFF).
  std::unique_ptr<std::atomic<std::uint64_t>[]> busy_us_;
};

/// The process-wide pool (hardware_concurrency workers, created on first
/// use). Batch entry points default to it; servers may size their own.
JobSystem& global_jobs();

}  // namespace fbt::jobs
