#include "jobs/job_system.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <stdexcept>

#include "obs/event_journal.hpp"
#include "obs/instrument.hpp"
#include "obs/phase.hpp"

namespace fbt::jobs {

namespace detail {

/// Completion state of one submitted task, shared by its handle and the
/// queued work that runs it.
struct TaskState {
  std::function<void()> fn;
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;         ///< guarded by mutex
  std::exception_ptr error;  ///< set before done, guarded by mutex
};

}  // namespace detail

namespace {

// The pool whose worker loop owns the current thread; wait() refuses it.
thread_local const JobSystem* tls_pool = nullptr;

/// The post site's trace position and event journal, captured when work is
/// queued and re-entered around it on the worker: its spans parent under
/// the poster's span instead of fragmenting into parentless roots, and its
/// events land in the poster's journal.
class Origin {
 public:
#if FBT_OBS_ENABLED
  Origin()
      : trace_(obs::current_trace_context()), journal_(&obs::journal()) {
    // Untraced posts (no enclosing span) skip the Chrome flow arrow to keep
    // the trace buffer proportional to instrumented work.
    if (trace_.span_id != 0) {
      arrow_.id = obs::detail::next_flow_id();
      arrow_.src_ts_us = obs::detail::trace_now_us();
      arrow_.src_tid = obs::detail::trace_thread_tid();
    }
  }

  /// Records the Chrome flow arrow from the post site to this worker.
  void arrive() const {
    if (arrow_.id == 0) return;
    obs::FlowArrow arrow = arrow_;
    arrow.dst_ts_us = obs::detail::trace_now_us();
    arrow.dst_tid = obs::detail::trace_thread_tid();
    obs::PhaseTrace::instance().add_flow(arrow);
  }

  /// Runs f() on this worker as if at the post site. The journal must still
  /// be alive.
  template <typename F>
  void enter(F&& f) const {
    const obs::TaskTraceScope trace_scope(trace_);
    const obs::JournalScope journal_scope(*journal_);
    f();
  }

 private:
  obs::TraceContext trace_;
  obs::EventJournal* journal_;
  obs::FlowArrow arrow_{};
#else
  void arrive() const {}
  template <typename F>
  void enter(F&& f) const {
    f();
  }
#endif
};

}  // namespace

bool TaskHandle::done() const {
  if (state_ == nullptr) return true;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

std::size_t JobSystem::resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

JobSystem::JobSystem(std::size_t num_threads) {
  const std::size_t n = resolve_threads(num_threads);
  start_ = std::chrono::steady_clock::now();
  busy_us_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  for (std::size_t i = 0; i < n; ++i) busy_us_[i] = 0;
  FBT_OBS_GAUGE_SET("jobs.workers", n);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

JobSystem::~JobSystem() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void JobSystem::post(std::function<void()> work) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  FBT_OBS_COUNTER_ADD("jobs.submitted", 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(work));
    FBT_OBS_GAUGE_SET("jobs.queue_depth", queue_.size());
  }
  cv_.notify_one();
}

void JobSystem::worker_loop(std::size_t index) {
  tls_pool = this;
  while (true) {
    std::function<void()> work;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and nothing left to run
      work = std::move(queue_.front());
      queue_.pop_front();
    }
    // Counted before the work runs: a waiter woken by the task itself then
    // sees it executed.
    executed_.fetch_add(1, std::memory_order_relaxed);
    FBT_OBS_COUNTER_ADD("jobs.executed", 1);
#if FBT_OBS_ENABLED
    const auto run_t0 = std::chrono::steady_clock::now();
    work();  // posted work catches its own exceptions
    const auto run_us = static_cast<std::uint64_t>(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - run_t0)
            .count());
    FBT_OBS_HIST_RECORD_LOG("jobs.run_ms",
                            static_cast<double>(run_us) / 1000.0);
    busy_us_[index].fetch_add(run_us, std::memory_order_relaxed);
#else
    (void)index;
    work();
#endif
  }
}

TaskHandle JobSystem::submit(std::function<void()> fn) {
  auto state = std::make_shared<detail::TaskState>();
  state->fn = std::move(fn);
  post([state, origin = Origin()] {
    origin.arrive();
    std::exception_ptr error;
    try {
      origin.enter(state->fn);
    } catch (...) {
      error = std::current_exception();
    }
    state->fn = nullptr;  // release captured resources before signalling done
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      state->error = error;
      state->done = true;
    }
    state->cv.notify_all();
  });
  return TaskHandle(std::move(state));
}

void JobSystem::wait(const TaskHandle& handle) {
  if (!handle.valid()) return;
  if (tls_pool == this) {
    throw std::logic_error("JobSystem::wait: called on a worker of its pool");
  }
  detail::TaskState& state = *handle.state_;
  std::unique_lock<std::mutex> lock(state.mutex);
  state.cv.wait(lock, [&state] { return state.done; });
  if (state.error != nullptr) std::rethrow_exception(state.error);
}

void JobSystem::parallel_for(std::size_t num_tasks,
                             const std::function<void(std::size_t)>& task) {
  if (num_tasks == 0) return;
  // Shared by the caller and its helpers. A helper may start after the
  // caller returned, so it holds the lanes by shared_ptr and enters the
  // caller's journal or touches `task` only if it registered in `running`
  // before the caller closed the lanes.
  struct Lanes {
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t running = 0;  ///< helpers inside the lane loop
    bool closed = false;      ///< the caller's own lane ran out of indices
    std::size_t error_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;  ///< of the lowest failed index
  };
  const auto lanes = std::make_shared<Lanes>();
  const auto lane = [num_tasks, &task](Lanes& s) {
    for (std::size_t k; (k = s.next.fetch_add(1)) < num_tasks;) {
      const std::size_t i = num_tasks - 1 - k;
      try {
        task(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(s.mutex);
        if (i < s.error_index) {
          s.error_index = i;
          s.error = std::current_exception();
        }
      }
    }
  };
  for (std::size_t h = 1; h < std::min(num_tasks, size()); ++h) {
    post([lanes, lane, origin = Origin()] {
      origin.arrive();
      {
        std::lock_guard<std::mutex> lock(lanes->mutex);
        if (lanes->closed) return;
        ++lanes->running;
      }
      origin.enter([&] { lane(*lanes); });
      std::lock_guard<std::mutex> lock(lanes->mutex);
      if (--lanes->running == 0) lanes->cv.notify_all();
    });
  }
  lane(*lanes);
  // The error leaves the lanes under the lock: a late helper may drop the
  // last reference to them while the caller rethrows.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(lanes->mutex);
    lanes->closed = true;
    lanes->cv.wait(lock, [&] { return lanes->running == 0; });
    error = std::move(lanes->error);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

SchedulerSnapshot JobSystem::scheduler_snapshot() const {
  SchedulerSnapshot snap;
  snap.workers = workers_.size();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snap.queue_depth = queue_.size();
  }
  snap.submitted = submitted_.load(std::memory_order_relaxed);
  snap.executed = executed_.load(std::memory_order_relaxed);
  snap.elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_)
          .count();
  std::uint64_t busy_us = 0;
  for (std::size_t i = 0; i < snap.workers; ++i) {
    busy_us += busy_us_[i].load(std::memory_order_relaxed);
  }
  snap.busy_ms = static_cast<double>(busy_us) / 1000.0;
  const double capacity_ms =
      snap.elapsed_ms * static_cast<double>(snap.workers);
  if (capacity_ms > 0.0) {
    snap.utilization = std::min(1.0, snap.busy_ms / capacity_ms);
  }
  return snap;
}

JobSystem& global_jobs() {
  static JobSystem system(0);
  return system;
}

}  // namespace fbt::jobs
