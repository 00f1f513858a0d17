#include "obs/phase.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "obs/resource.hpp"

namespace fbt::obs {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point trace_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            trace_epoch())
          .count());
}

// Per-thread stack of open spans. Nodes live in the stack by value until the
// span closes; a closing span either becomes a child of the span below it or
// a root of the process-wide trace.
thread_local std::vector<PhaseNode> open_spans;

// Context adopted from the submitting thread via TaskTraceScope; consulted
// only when the local open-span stack is empty.
thread_local TraceContext adopted_context;

// Small sequential id per thread, assigned on the thread's first span. The
// main thread of a typical run gets 1, workers 2..N; ids are never reused
// within a process.
std::uint32_t this_thread_tid() {
  static std::atomic<std::uint32_t> next_tid{1};
  thread_local const std::uint32_t tid =
      next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

// Span and flow-arrow ids share one process-wide sequence starting at 1, so
// a parent's span_id is always smaller than any of its children's (spans
// open after their parents) and 0 stays the "no parent" sentinel.
std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> next_id{1};
  return next_id.fetch_add(1, std::memory_order_relaxed);
}

void render_tree(const std::vector<PhaseSummary>& nodes, std::size_t depth,
                 std::string& out) {
  for (const PhaseSummary& n : nodes) {
    char buf[160];
    std::string label(2 * depth, ' ');
    label += n.name;
    if (n.count > 1) {
      std::snprintf(buf, sizeof(buf), " x%" PRIu64, n.count);
      label += buf;
    }
    if (label.size() < 32) label.resize(32, ' ');
    if (n.children.empty()) {
      std::snprintf(buf, sizeof(buf), "%s %10.3f ms\n", label.c_str(),
                    n.total_ms);
    } else {
      std::snprintf(buf, sizeof(buf), "%s %10.3f ms  (self %.3f ms)\n",
                    label.c_str(), n.total_ms, n.self_ms);
    }
    out += buf;
    render_tree(n.children, depth + 1, out);
  }
}

void render_events(const PhaseNode& node, bool& first, std::string& out) {
  char buf[288];
  out += first ? "\n" : ",\n";
  first = false;
  out += "  {\"name\": \"";
  for (const char c : node.name) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  std::snprintf(buf, sizeof(buf),
                "\", \"ph\": \"X\", \"ts\": %" PRIu64 ", \"dur\": %" PRIu64
                ", \"pid\": 1, \"tid\": %" PRIu32
                ", \"args\": {\"span_id\": %" PRIu64
                ", \"parent_span_id\": %" PRIu64
                ", \"rss_open_bytes\": %" PRIu64
                ", \"rss_close_bytes\": %" PRIu64 "}}",
                node.start_us, node.dur_us, node.tid, node.span_id,
                node.parent_span_id, node.rss_open_bytes,
                node.rss_close_bytes);
  out += buf;
  for (const PhaseNode& child : node.children) {
    render_events(child, first, out);
  }
}

void render_flow(const FlowArrow& arrow, bool& first, std::string& out) {
  char buf[192];
  // "s" marks the submit site, "f" with bp:"e" binds the arrowhead to the
  // enclosing slice at the execution site. Chrome requires a "cat" on flow
  // events.
  std::snprintf(buf, sizeof(buf),
                "%s  {\"name\": \"job\", \"cat\": \"jobs\", \"ph\": \"s\", "
                "\"id\": %" PRIu64 ", \"ts\": %" PRIu64
                ", \"pid\": 1, \"tid\": %" PRIu32 "},\n",
                first ? "\n" : ",\n", arrow.id, arrow.src_ts_us,
                arrow.src_tid);
  first = false;
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  {\"name\": \"job\", \"cat\": \"jobs\", \"ph\": \"f\", "
                "\"bp\": \"e\", \"id\": %" PRIu64 ", \"ts\": %" PRIu64
                ", \"pid\": 1, \"tid\": %" PRIu32 "}",
                arrow.id, arrow.dst_ts_us, arrow.dst_tid);
  out += buf;
}

/// Depth-first search for the span with `id`; nullptr when absent.
PhaseNode* find_span(PhaseNode& node, std::uint64_t id) {
  if (node.span_id == id) return &node;
  for (PhaseNode& c : node.children) {
    if (PhaseNode* found = find_span(c, id)) return found;
  }
  return nullptr;
}

}  // namespace

double PhaseNode::self_ms() const {
  std::uint64_t child_us = 0;
  for (const PhaseNode& c : children) child_us += c.dur_us;
  return static_cast<double>(dur_us > child_us ? dur_us - child_us : 0) /
         1000.0;
}

TraceContext current_trace_context() {
  if (!open_spans.empty()) {
    const PhaseNode& top = open_spans.back();
    return {top.span_id, top.parent_span_id};
  }
  return adopted_context;
}

TaskTraceScope::TaskTraceScope(TraceContext ctx)
    : saved_context_(adopted_context) {
  adopted_context = ctx;
}

TaskTraceScope::~TaskTraceScope() { adopted_context = saved_context_; }

PhaseTrace& PhaseTrace::instance() {
  static PhaseTrace trace;
  return trace;
}

void PhaseTrace::add_root(PhaseNode node) {
  std::lock_guard lock(mutex_);
  roots_.push_back(std::move(node));
}

void PhaseTrace::add_flow(const FlowArrow& arrow) {
  std::lock_guard lock(mutex_);
  flows_.push_back(arrow);
}

std::vector<PhaseNode> PhaseTrace::roots() const {
  std::lock_guard lock(mutex_);
  return roots_;
}

std::vector<FlowArrow> PhaseTrace::flows() const {
  std::lock_guard lock(mutex_);
  return flows_;
}

std::vector<PhaseNode> PhaseTrace::stitched_roots() const {
  return stitch_phase_roots(roots());
}

void PhaseTrace::clear() {
  std::lock_guard lock(mutex_);
  roots_.clear();
  flows_.clear();
}

namespace {

std::uint64_t node_footprint(const PhaseNode& node) {
  std::uint64_t bytes = sizeof(PhaseNode) + node.name.size();
  for (const PhaseNode& c : node.children) bytes += node_footprint(c);
  return bytes;
}

}  // namespace

std::uint64_t PhaseTrace::footprint_bytes() const {
  std::lock_guard lock(mutex_);
  std::uint64_t bytes = 0;
  for (const PhaseNode& n : roots_) bytes += node_footprint(n);
  bytes += flows_.size() * sizeof(FlowArrow);
  return bytes;
}

std::vector<PhaseNode> stitch_phase_roots(std::vector<PhaseNode> roots) {
  // Each pass moves one detached root under its parent, then restarts (the
  // erase invalidates positions). A root whose parent is itself a detached
  // root still resolves: the move searches every other root's subtree, and
  // a later pass moves the parent with the child already attached. Bounded:
  // every pass removes one root or terminates the loop.
  bool moved = true;
  while (moved) {
    moved = false;
    for (std::size_t i = 0; i < roots.size() && !moved; ++i) {
      const std::uint64_t want = roots[i].parent_span_id;
      if (want == 0) continue;
      bool resolvable = false;
      for (std::size_t j = 0; j < roots.size() && !resolvable; ++j) {
        resolvable = j != i && find_span(roots[j], want) != nullptr;
      }
      if (!resolvable) continue;
      PhaseNode node = std::move(roots[i]);
      roots.erase(roots.begin() + static_cast<std::ptrdiff_t>(i));
      for (std::size_t j = 0; j < roots.size(); ++j) {
        if (PhaseNode* parent = find_span(roots[j], want)) {
          // Insert among the children in start order so summaries and
          // renders are deterministic regardless of completion order.
          auto pos = std::find_if(
              parent->children.begin(), parent->children.end(),
              [&node](const PhaseNode& c) {
                return c.start_us > node.start_us ||
                       (c.start_us == node.start_us &&
                        c.span_id > node.span_id);
              });
          parent->children.insert(pos, std::move(node));
          break;
        }
      }
      moved = true;
    }
  }
  return roots;
}

std::vector<PhaseSummary> summarize_phases(
    const std::vector<PhaseNode>& nodes) {
  std::vector<PhaseSummary> out;
  // Merge same-name siblings in first-seen order; hot loops open hundreds of
  // identically named spans and the human view wants one aggregated line.
  std::vector<std::vector<PhaseNode>> grouped_children;
  for (const PhaseNode& n : nodes) {
    std::size_t slot = out.size();
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out[i].name == n.name) {
        slot = i;
        break;
      }
    }
    if (slot == out.size()) {
      out.push_back({n.name, 0, 0.0, 0.0, 0, {}});
      grouped_children.emplace_back();
    }
    out[slot].count += 1;
    out[slot].total_ms += n.total_ms();
    out[slot].self_ms += n.self_ms();
    out[slot].rss_delta_bytes += n.rss_delta_bytes();
    for (const PhaseNode& c : n.children) {
      grouped_children[slot].push_back(c);
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].children = summarize_phases(grouped_children[i]);
  }
  return out;
}

std::vector<PhaseSummary> PhaseTrace::summarize() const {
  return summarize_phases(stitched_roots());
}

std::string PhaseTrace::tree_string() const {
  std::string out;
  render_tree(summarize(), 0, out);
  return out;
}

std::string PhaseTrace::chrome_trace_json() const {
  std::vector<PhaseNode> nodes;
  std::vector<FlowArrow> arrows;
  {
    std::lock_guard lock(mutex_);
    nodes = roots_;
    arrows = flows_;
  }
  std::string out = "[";
  bool first = true;
  for (const PhaseNode& n : nodes) render_events(n, first, out);
  for (const FlowArrow& a : arrows) render_flow(a, first, out);
  out += first ? "]" : "\n]";
  out += "\n";
  return out;
}

PhaseSpan::PhaseSpan(std::string name) {
  PhaseNode node;
  node.name = std::move(name);
  node.tid = this_thread_tid();
  node.span_id = next_span_id();
  node.parent_span_id = open_spans.empty() ? adopted_context.span_id
                                           : open_spans.back().span_id;
  node.rss_open_bytes = sampled_rss_bytes();
  node.start_us = now_us();
  open_spans.push_back(std::move(node));
}

PhaseSpan::~PhaseSpan() {
  if (open_spans.empty()) return;  // defensive; cannot happen with RAII use
  PhaseNode node = std::move(open_spans.back());
  open_spans.pop_back();
  node.dur_us = now_us() - node.start_us;
  node.rss_close_bytes = sampled_rss_bytes();
  if (open_spans.empty()) {
    // Roots with a nonzero parent_span_id are *detached*: the logical
    // parent is open on another thread. stitch_phase_roots() re-attaches
    // them once both have completed.
    PhaseTrace::instance().add_root(std::move(node));
  } else {
    open_spans.back().children.push_back(std::move(node));
  }
}

namespace detail {

std::uint64_t trace_now_us() { return now_us(); }

std::uint32_t trace_thread_tid() { return this_thread_tid(); }

std::uint64_t next_flow_id() { return next_span_id(); }

}  // namespace detail

}  // namespace fbt::obs
