// Scoped phase tracing: RAII spans that nest (calibrate -> construct ->
// grade -> reduce -> cost), record wall time with child attribution, and
// render both a human-readable tree and Chrome `trace_event` JSON
// (chrome://tracing / https://ui.perfetto.dev).
//
// The trace is one flat log: every closed span is appended to the
// process-wide PhaseTrace in completion order, carrying a process-unique
// span_id and the span_id of its logical parent. The tree is built when the
// trace is read (roots(), summarize()): a span goes under the recorded span
// its parent_span_id names, and a span whose parent is not recorded --
// still open, or cleared -- is a root. Hot loops may open many spans with
// the same name -- the renderers aggregate same-name siblings.
//
// Parenthood is one thread-local current span. A PhaseSpan parents under
// it and becomes it until it closes. Across threads, the JobSystem captures
// current_trace_context() at each submit site and runs the work inside a
// TaskTraceScope, which makes the captured span current on the worker, so
// the task's spans parent under their submitter. The Chrome export keeps one
// complete event per span (args carry span_id/parent_span_id) plus flow
// arrows ("ph":"s"/"f") from each submit site to the execution site.
//
// Thread safety: the current span is thread_local, the span log
// (PhaseTrace::instance()) is mutex-guarded, and every span records the
// small sequential id of the thread that opened it (assigned on that
// thread's first span). The Chrome trace emits that id as "tid", so spans
// completed concurrently by worker threads land on separate per-worker
// tracks instead of interleaving.
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
  /// Filled only in a built tree (PhaseTrace::roots(), build_phase_tree);
  /// empty in the recorded log.
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

/// Copyable handle to a position in the span tree: the current span
/// (span_id) and its parent. Capture with current_trace_context() at a task's
/// submit site; re-enter with TaskTraceScope on the thread that executes it.
/// A zero span_id means "no enclosing span" and propagating it is a no-op,
/// so the scheduler can capture unconditionally.
struct TraceContext {
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
};

/// This thread's current span: that of the innermost live PhaseSpan or
/// TaskTraceScope, whichever was entered last; {0, 0} outside both.
TraceContext current_trace_context();

/// RAII entry into a pool task's own trace position (used by the JobSystem
/// around every task): makes `ctx` this thread's current span, so the
/// task's spans parent under its submitter. Destruction restores the
/// previous current span.
class TaskTraceScope {
 public:
  explicit TaskTraceScope(TraceContext ctx);
  ~TaskTraceScope();
  TaskTraceScope(const TaskTraceScope&) = delete;
  TaskTraceScope& operator=(const TaskTraceScope&) = delete;

 private:
  TraceContext saved_;
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

/// Process-wide log of closed spans.
class PhaseTrace {
 public:
  static PhaseTrace& instance();

  /// The recorded spans as a tree (build_phase_tree of the log).
  std::vector<PhaseNode> roots() const;

  /// roots() with same-name siblings aggregated, recursively (first-seen
  /// order). This is the shape rendered by tree_string() and the run report.
  std::vector<PhaseSummary> summarize() const;

  /// Indented human-readable tree of summarize().
  std::string tree_string() const;

  /// Chrome trace_event JSON array: one complete ("ph":"X") event per
  /// recorded span, in completion order (not aggregated; args carry
  /// span_id/parent_span_id) plus one "s"/"f" flow-arrow pair per recorded
  /// submit->execute edge. Load in chrome://tracing or Perfetto.
  std::string chrome_trace_json() const;

  /// Records one submit->execute flow arrow (called by the JobSystem).
  void add_flow(const FlowArrow& arrow);

  /// Copy of the recorded flow arrows, in recording order.
  std::vector<FlowArrow> flows() const;

  /// Drops all recorded spans and flow arrows. A span open across the clear
  /// is recorded when it closes; its children recorded before the clear are
  /// gone, and a span whose parent was cleared reads as a root.
  void clear();

  /// Approximate heap bytes held by the recorded spans and flow arrows
  /// (the trace buffer's own footprint, reported into the run report's
  /// memory section).
  std::uint64_t footprint_bytes() const;

 private:
  friend class PhaseSpan;
  void record(PhaseNode span);

  mutable std::mutex mutex_;
  std::vector<PhaseNode> spans_;  ///< closed spans, in completion order
  std::vector<FlowArrow> flows_;
};

/// Aggregates same-name siblings recursively; exposed for tests.
std::vector<PhaseSummary> summarize_phases(const std::vector<PhaseNode>& nodes);

/// Builds the tree from a flat span log (each span with empty children):
/// a span goes under the span whose span_id equals its parent_span_id, with
/// siblings ordered by (start_us, span_id); a span whose parent is not in
/// the log is a root, and roots keep their log order. Span ids must be
/// unique and no span may be its own ancestor, as PhaseSpan guarantees (a
/// parent opens, and so takes its id, before its children). Exposed for
/// tests.
std::vector<PhaseNode> build_phase_tree(std::vector<PhaseNode> spans);

/// RAII phase span. Construction opens the span under this thread's current
/// span and makes it current; destruction restores the previous current
/// span and records this one. Prefer the FBT_OBS_PHASE macro in
/// instrumented library code so the span compiles away when observability
/// is disabled.
class PhaseSpan {
 public:
  explicit PhaseSpan(std::string name);
  ~PhaseSpan();
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  PhaseNode node_;
  TraceContext saved_;
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
