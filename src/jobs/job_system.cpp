#include "jobs/job_system.hpp"

#include <algorithm>
#include <chrono>

#include "obs/instrument.hpp"

namespace fbt::jobs {

namespace {

// Identifies the pool (and worker slot) owning the current thread so
// enqueue() can push to the local deque and wait() knows it must help.
thread_local JobSystem* tls_pool = nullptr;
thread_local std::size_t tls_worker = 0;

#if FBT_OBS_ENABLED
double us_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
#endif

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
#if FBT_OBS_ENABLED
  busy_us_ = std::make_unique<std::atomic<std::uint64_t>[]>(n + 1);
  for (std::size_t i = 0; i <= n; ++i) busy_us_[i] = 0;
#endif
  FBT_OBS_GAUGE_SET("jobs.workers", n);
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

JobSystem::~JobSystem() {
  {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    stop_ = true;
  }
  idle_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

TaskHandle JobSystem::submit(std::function<void()> fn) {
  return submit_after({}, std::move(fn));
}

TaskHandle JobSystem::submit_after(const std::vector<TaskHandle>& deps,
                                   std::function<void()> fn) {
  auto state = std::make_shared<detail::TaskState>();
  state->fn = std::move(fn);
  for (const TaskHandle& dep : deps) {
    if (!dep.valid()) continue;
    std::lock_guard<std::mutex> lock(dep.state_->mutex);
    if (!dep.state_->done) {
      state->pending.fetch_add(1, std::memory_order_relaxed);
      dep.state_->dependents.push_back(state);
    } else if (dep.state_->error != nullptr) {
      std::lock_guard<std::mutex> self_lock(state->mutex);
      if (state->dep_error == nullptr) state->dep_error = dep.state_->error;
    }
  }
#if FBT_OBS_ENABLED
  // Capture the submitter's trace position before the task becomes reachable
  // (execute() re-enters it on whichever worker runs fn, possibly after a
  // steal). The flow id pairs the Chrome "s"/"f" arrow from here to there;
  // untraced submits (no enclosing span) skip the arrow to keep the trace
  // buffer proportional to instrumented work.
  state->trace = obs::current_trace_context();
  state->journal = &obs::journal();
  if (state->trace.span_id != 0) {
    state->flow_id = obs::detail::next_flow_id();
    state->submit_us = obs::detail::trace_now_us();
    state->submit_tid = obs::detail::trace_thread_tid();
  }
#endif
  submitted_.fetch_add(1, std::memory_order_relaxed);
  FBT_OBS_COUNTER_ADD("jobs.submitted", 1);
  // Drop the submission guard; enqueue now when every dependency already
  // finished (the last finishing dependency enqueues otherwise).
  if (state->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    enqueue(state);
  }
  return TaskHandle(state);
}

void JobSystem::enqueue(std::shared_ptr<detail::TaskState> state) {
  std::size_t index;
  if (tls_pool == this) {
    index = tls_worker;  // local push: LIFO hot path for nested submits
  } else {
    index = submit_cursor_.fetch_add(1, std::memory_order_relaxed) %
            queues_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queues_[index]->mutex);
    queues_[index]->tasks.push_back(std::move(state));
  }
  const std::size_t depth =
      ready_count_.fetch_add(1, std::memory_order_release) + 1;
  FBT_OBS_GAUGE_SET("jobs.queue_depth", depth);
  {
    // Pairs with the predicate re-check in worker_loop: taking the mutex
    // before notifying closes the missed-wakeup window.
    std::lock_guard<std::mutex> lock(idle_mutex_);
  }
  idle_cv_.notify_one();
}

bool JobSystem::try_execute_one() {
  const bool is_worker = tls_pool == this;
  const std::size_t n = queues_.size();
  const std::size_t self = is_worker ? tls_worker : 0;

  std::shared_ptr<detail::TaskState> task;
  if (is_worker) {
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
    }
  }

  if (task == nullptr) {
    // Steal: scan victims from the next slot; take the front half of the
    // first non-empty deque (oldest tasks -- likely whole subtrees), run the
    // first stolen task, keep the rest locally (workers only).
#if FBT_OBS_ENABLED
    const auto steal_t0 = std::chrono::steady_clock::now();
#endif
    std::vector<std::shared_ptr<detail::TaskState>> stolen;
    for (std::size_t off = is_worker ? 1 : 0; off < n && task == nullptr;
         ++off) {
      const std::size_t victim = (self + off) % n;
      if (is_worker && victim == self) continue;
      WorkerQueue& vq = *queues_[victim];
      std::lock_guard<std::mutex> lock(vq.mutex);
      if (vq.tasks.empty()) continue;
      const std::size_t take =
          is_worker ? (vq.tasks.size() + 1) / 2 : std::size_t{1};
      for (std::size_t i = 0; i < take; ++i) {
        stolen.push_back(std::move(vq.tasks.front()));
        vq.tasks.pop_front();
      }
      task = std::move(stolen.front());
      steals_.fetch_add(1, std::memory_order_relaxed);
      FBT_OBS_COUNTER_ADD("jobs.steals", 1);
    }
    if (task == nullptr) return false;
#if FBT_OBS_ENABLED
    // Time from "own deque empty" to "victim task in hand": the cost of the
    // scan itself, a proxy for contention on the victim locks.
    FBT_OBS_HIST_RECORD_LOG(
        "jobs.steal_latency_ms",
        us_between(steal_t0, std::chrono::steady_clock::now()) / 1000.0);
#endif
    if (stolen.size() > 1) {
      WorkerQueue& own = *queues_[self];
      std::lock_guard<std::mutex> lock(own.mutex);
      for (std::size_t i = 1; i < stolen.size(); ++i) {
        own.tasks.push_back(std::move(stolen[i]));
      }
    }
  }

  ready_count_.fetch_sub(1, std::memory_order_acq_rel);
  execute(task);
  return true;
}

void JobSystem::execute(const std::shared_ptr<detail::TaskState>& state) {
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    error = state->dep_error;
  }
  if (error == nullptr) {
#if FBT_OBS_ENABLED
    if (state->flow_id != 0) {
      // Chrome flow arrow: submit site -> this execution site (which may be
      // a different worker after a steal).
      obs::PhaseTrace::instance().add_flow(
          {state->flow_id, state->submit_us, state->submit_tid,
           obs::detail::trace_now_us(), obs::detail::trace_thread_tid()});
    }
    const auto run_t0 = std::chrono::steady_clock::now();
    try {
      // Re-enter the submitter's trace position and journal: fn's spans
      // chain to the submitter instead of fragmenting into parentless roots
      // (stitched back by PhaseTrace::summarize()), and neither its spans
      // nor its events land in the open spans or JournalScope of a waiter
      // that runs it while helping.
      obs::TaskTraceScope trace_scope(state->trace);
      obs::JournalScope journal_scope(*state->journal);
      state->fn();
    } catch (...) {
      error = std::current_exception();
    }
    const double run_us =
        us_between(run_t0, std::chrono::steady_clock::now());
    FBT_OBS_HIST_RECORD_LOG("jobs.run_ms", run_us / 1000.0);
    FBT_OBS_COUNTER_ADD("jobs.busy_us", static_cast<std::uint64_t>(run_us));
    const std::size_t slot =
        tls_pool == this ? tls_worker : queues_.size();
    busy_us_[slot].fetch_add(static_cast<std::uint64_t>(run_us),
                             std::memory_order_relaxed);
#else
    try {
      state->fn();
    } catch (...) {
      error = std::current_exception();
    }
#endif
  }
  state->fn = nullptr;  // release captured resources before signalling done
  executed_.fetch_add(1, std::memory_order_relaxed);
  FBT_OBS_COUNTER_ADD("jobs.executed", 1);
  complete(state, error);
}

void JobSystem::complete(const std::shared_ptr<detail::TaskState>& state,
                         std::exception_ptr error) {
  std::vector<std::shared_ptr<detail::TaskState>> dependents;
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    state->error = error;
    state->done = true;
    dependents.swap(state->dependents);
  }
  state->cv.notify_all();
  for (const std::shared_ptr<detail::TaskState>& dep : dependents) {
    if (error != nullptr) {
      std::lock_guard<std::mutex> lock(dep->mutex);
      if (dep->dep_error == nullptr) dep->dep_error = error;
    }
    if (dep->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      enqueue(dep);
    }
  }
}

void JobSystem::worker_loop(std::size_t index) {
  tls_pool = this;
  tls_worker = index;
  while (true) {
    if (try_execute_one()) continue;
    std::unique_lock<std::mutex> lock(idle_mutex_);
    idle_cv_.wait(lock, [this] {
      return stop_ || ready_count_.load(std::memory_order_acquire) > 0;
    });
    if (stop_) return;
  }
}

void JobSystem::wait(const TaskHandle& handle) {
  if (!handle.valid()) return;
  const std::shared_ptr<detail::TaskState>& state = handle.state_;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      if (state->done) break;
    }
    // Help: run pending tasks instead of idling. A blocked dependency chain
    // leaves the queues empty, so fall back to a timed wait on the task's cv
    // (timed because new work may appear in the queues, not on this cv).
    if (!try_execute_one()) {
      std::unique_lock<std::mutex> lock(state->mutex);
      if (state->done) break;
      state->cv.wait_for(lock, std::chrono::microseconds(200));
    }
  }
  std::lock_guard<std::mutex> lock(state->mutex);
  if (state->error != nullptr) std::rethrow_exception(state->error);
}

void JobSystem::wait_all(const std::vector<TaskHandle>& handles) {
  std::exception_ptr first;
  for (const TaskHandle& h : handles) {
    try {
      wait(h);
    } catch (...) {
      if (first == nullptr) first = std::current_exception();
    }
  }
  if (first != nullptr) std::rethrow_exception(first);
}

void JobSystem::parallel_for(std::size_t num_tasks,
                             const std::function<void(std::size_t)>& task) {
  if (num_tasks == 0) return;
  if (num_tasks == 1 || size() == 1) {
    for (std::size_t i = 0; i < num_tasks; ++i) task(i);
    return;
  }
  std::vector<TaskHandle> handles;
  handles.reserve(num_tasks);
  for (std::size_t i = 0; i < num_tasks; ++i) {
    handles.push_back(submit([&task, i] { task(i); }));
  }
  wait_all(handles);
}

SchedulerSnapshot JobSystem::scheduler_snapshot() const {
  SchedulerSnapshot snap;
  snap.workers = queues_.size();
  snap.queue_depth = ready_count_.load(std::memory_order_relaxed);
  snap.submitted = submitted_.load(std::memory_order_relaxed);
  snap.executed = executed_.load(std::memory_order_relaxed);
  snap.steals = steals_.load(std::memory_order_relaxed);
  snap.elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_)
          .count();
#if FBT_OBS_ENABLED
  std::uint64_t busy_us = 0;
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    busy_us += busy_us_[i].load(std::memory_order_relaxed);
  }
  snap.busy_ms = static_cast<double>(busy_us) / 1000.0;
  const double capacity_ms =
      snap.elapsed_ms * static_cast<double>(snap.workers);
  if (capacity_ms > 0.0) {
    snap.utilization = std::min(1.0, snap.busy_ms / capacity_ms);
  }
#endif
  return snap;
}

JobSystem& global_jobs() {
  static JobSystem system(0);
  return system;
}

}  // namespace fbt::jobs
