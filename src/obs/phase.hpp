// Scoped phase tracing: RAII spans that nest (calibrate -> construct ->
// grade -> reduce -> cost), record wall time with child attribution, and
// render both a human-readable tree and Chrome `trace_event` JSON
// (chrome://tracing / https://ui.perfetto.dev).
//
// Spans nest per thread; a span closed on a thread with no enclosing span
// becomes a root in the process-wide trace. Hot loops may open many spans
// with the same name -- the renderers aggregate same-name siblings.
//
// Cross-worker propagation: every span carries a process-unique span_id and
// the span_id of its logical parent. On one thread, parenthood follows the
// open-span stack. Across threads, the JobSystem captures
// current_trace_context() at each submit site and runs the task inside a
// TaskTraceScope on a worker with no open spans, which adopts the captured
// span as the parent of the task's spans. Such spans are recorded as
// *detached* roots; summarize() re-attaches them under their parent span
// (stitching), so the phase tree shows each task under its poster even
// though the tasks run on other threads. The Chrome export keeps one
// complete event per span (args carry span_id/parent_span_id) plus flow
// arrows ("ph":"s"/"f") from each submit site to the execution site.
//
// Thread safety: the open-span stack and the adopted context are
// thread_local, the completed-span sink (PhaseTrace::instance()) is
// mutex-guarded, and every span records the small sequential id of the
// thread that opened it (assigned on that thread's first span). The Chrome
// trace emits that id as "tid", so spans completed concurrently by worker
// threads land on separate per-worker tracks instead of interleaving.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace fbt::obs {

/// One completed span. Times are microseconds relative to the trace epoch
/// (first use of the trace in this process). RSS is sampled (throttled, see
/// obs/resource.hpp) when the span opens and closes.
struct PhaseNode {
  std::string name;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 1;  ///< sequential id of the opening thread (from 1)
  std::uint64_t span_id = 0;         ///< process-unique, assigned at open
  std::uint64_t parent_span_id = 0;  ///< 0 = root (no logical parent)
  std::uint64_t rss_open_bytes = 0;   ///< sampled RSS when the span opened
  std::uint64_t rss_close_bytes = 0;  ///< sampled RSS when the span closed
  std::vector<PhaseNode> children;

  double total_ms() const { return static_cast<double>(dur_us) / 1000.0; }
  /// Wall time not attributed to any child span.
  double self_ms() const;
  /// RSS growth (possibly negative) across the span.
  std::int64_t rss_delta_bytes() const {
    return static_cast<std::int64_t>(rss_close_bytes) -
           static_cast<std::int64_t>(rss_open_bytes);
  }
};

/// Copyable handle to a position in the span tree: the innermost open span
/// (span_id) and its parent. Capture with current_trace_context() at a task's
/// submit site; re-enter with TaskTraceScope on the thread that executes it.
/// A zero span_id means "no enclosing span" and propagating it is a no-op,
/// so the scheduler can capture unconditionally.
struct TraceContext {
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
};

/// The context of the innermost open span on this thread; falls back to the
/// context adopted via TaskTraceScope (so a task that submits subtasks
/// outside any local span still chains them to its own submitter), and to
/// {0, 0} when neither exists.
TraceContext current_trace_context();

/// RAII entry into a pool task's own trace position (used by the JobSystem
/// around every task): adopts `ctx`, so the task's spans parent under its
/// submitter. Adoption only takes effect while this thread has no open span
/// of its own, as on a worker between tasks. Destruction restores the
/// previously adopted context.
class TaskTraceScope {
 public:
  explicit TaskTraceScope(TraceContext ctx);
  ~TaskTraceScope();
  TaskTraceScope(const TaskTraceScope&) = delete;
  TaskTraceScope& operator=(const TaskTraceScope&) = delete;

 private:
  TraceContext saved_context_;
};

/// One submit-site -> execution-site edge for the Chrome flow arrows
/// ("ph":"s" at the source, "ph":"f" at the destination, paired by id).
struct FlowArrow {
  std::uint64_t id = 0;
  std::uint64_t src_ts_us = 0;
  std::uint32_t src_tid = 0;
  std::uint64_t dst_ts_us = 0;
  std::uint32_t dst_tid = 0;
};

/// Same-name siblings merged: `total_ms`, `self_ms` and `rss_delta_bytes` sum
/// over `count` spans.
struct PhaseSummary {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::int64_t rss_delta_bytes = 0;
  std::vector<PhaseSummary> children;
};

/// Process-wide collection of completed root spans.
class PhaseTrace {
 public:
  static PhaseTrace& instance();

  /// Copy of the completed root spans, in completion order. Raw: detached
  /// roots (cross-thread children) are NOT re-attached here; see
  /// stitched_roots().
  std::vector<PhaseNode> roots() const;

  /// roots() with every detached root re-attached under the node whose
  /// span_id matches its parent_span_id (see stitch_phase_roots).
  std::vector<PhaseNode> stitched_roots() const;

  /// Stitched roots with same-name siblings aggregated, recursively
  /// (first-seen order). This is the shape rendered by tree_string() and the
  /// run report.
  std::vector<PhaseSummary> summarize() const;

  /// Indented human-readable tree of summarize().
  std::string tree_string() const;

  /// Chrome trace_event JSON array: one complete ("ph":"X") event per
  /// recorded span (not aggregated; args carry span_id/parent_span_id) plus
  /// one "s"/"f" flow-arrow pair per recorded submit->execute edge. Load in
  /// chrome://tracing or Perfetto.
  std::string chrome_trace_json() const;

  /// Records one submit->execute flow arrow (called by the JobSystem).
  void add_flow(const FlowArrow& arrow);

  /// Copy of the recorded flow arrows, in recording order.
  std::vector<FlowArrow> flows() const;

  /// Drops all completed spans and flow arrows (open spans are unaffected
  /// and will record into the cleared trace when they close).
  void clear();

  /// Approximate heap bytes held by the completed spans and flow arrows
  /// (the trace buffer's own footprint, reported into the run report's
  /// memory section).
  std::uint64_t footprint_bytes() const;

 private:
  friend class PhaseSpan;
  void add_root(PhaseNode node);

  mutable std::mutex mutex_;
  std::vector<PhaseNode> roots_;
  std::vector<FlowArrow> flows_;
};

/// Aggregates same-name siblings recursively; exposed for tests.
std::vector<PhaseSummary> summarize_phases(const std::vector<PhaseNode>& nodes);

/// Re-attaches detached roots: every root whose parent_span_id matches a
/// span anywhere else in the forest moves under that span, inserted among
/// its children in start_us order. Parents always open before their
/// children (span ids are assigned in open order), so stitching cannot form
/// cycles; a root whose parent was never recorded (e.g. the trace was
/// cleared in between) stays a root. Exposed for tests.
std::vector<PhaseNode> stitch_phase_roots(std::vector<PhaseNode> roots);

/// RAII phase span. Construction opens the span (nested under the innermost
/// open span on this thread, else under the adopted TraceContext);
/// destruction records it. Prefer the FBT_OBS_PHASE macro in instrumented
/// library code so the span compiles away when observability is disabled.
class PhaseSpan {
 public:
  explicit PhaseSpan(std::string name);
  ~PhaseSpan();
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;
};

namespace detail {

/// Microseconds since the trace epoch (the clock spans and flow arrows use).
std::uint64_t trace_now_us();

/// The small sequential trace id of the calling thread (same id spans
/// record as `tid`), assigned on first use.
std::uint32_t trace_thread_tid();

/// A fresh process-unique id for a flow arrow (shares the span-id space).
std::uint64_t next_flow_id();

}  // namespace detail

}  // namespace fbt::obs
