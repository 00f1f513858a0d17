#include "obs/phase.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <tuple>
#include <unordered_map>

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

// This thread's current span. PhaseSpan and TaskTraceScope each save it on
// entry, replace it, and restore it on exit.
thread_local TraceContext current_span;

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

void render_event(const PhaseNode& node, bool& first, std::string& out) {
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

}  // namespace

double PhaseNode::self_ms() const {
  std::uint64_t child_us = 0;
  for (const PhaseNode& c : children) child_us += c.dur_us;
  return static_cast<double>(dur_us > child_us ? dur_us - child_us : 0) /
         1000.0;
}

TraceContext current_trace_context() { return current_span; }

TaskTraceScope::TaskTraceScope(TraceContext ctx) : saved_(current_span) {
  current_span = ctx;
}

TaskTraceScope::~TaskTraceScope() { current_span = saved_; }

PhaseTrace& PhaseTrace::instance() {
  static PhaseTrace trace;
  return trace;
}

void PhaseTrace::record(PhaseNode span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
}

void PhaseTrace::add_flow(const FlowArrow& arrow) {
  std::lock_guard lock(mutex_);
  flows_.push_back(arrow);
}

std::vector<PhaseNode> PhaseTrace::roots() const {
  std::vector<PhaseNode> spans;
  {
    std::lock_guard lock(mutex_);
    spans = spans_;
  }
  return build_phase_tree(std::move(spans));
}

std::vector<FlowArrow> PhaseTrace::flows() const {
  std::lock_guard lock(mutex_);
  return flows_;
}

void PhaseTrace::clear() {
  std::lock_guard lock(mutex_);
  spans_.clear();
  flows_.clear();
}

std::uint64_t PhaseTrace::footprint_bytes() const {
  std::lock_guard lock(mutex_);
  std::uint64_t bytes = spans_.size() * sizeof(PhaseNode);
  for (const PhaseNode& n : spans_) bytes += n.name.size();
  bytes += flows_.size() * sizeof(FlowArrow);
  return bytes;
}

std::vector<PhaseNode> build_phase_tree(std::vector<PhaseNode> spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index_of.emplace(spans[i].span_id, i);
  }
  std::vector<std::vector<std::size_t>> children(spans.size());
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto parent = index_of.find(spans[i].parent_span_id);
    if (spans[i].parent_span_id != 0 && parent != index_of.end()) {
      children[parent->second].push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  // Start order puts same-thread siblings in the order they ran and spans
  // from other threads where they began; the id breaks equal start times.
  for (std::vector<std::size_t>& kids : children) {
    std::sort(kids.begin(), kids.end(), [&spans](std::size_t a, std::size_t b) {
      return std::tie(spans[a].start_us, spans[a].span_id) <
             std::tie(spans[b].start_us, spans[b].span_id);
    });
  }
  const auto take = [&spans, &children](std::size_t i, const auto& self)
      -> PhaseNode {
    PhaseNode node = std::move(spans[i]);
    node.children.reserve(children[i].size());
    for (const std::size_t c : children[i]) {
      node.children.push_back(self(c, self));
    }
    return node;
  };
  std::vector<PhaseNode> tree;
  tree.reserve(roots.size());
  for (const std::size_t r : roots) tree.push_back(take(r, take));
  return tree;
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
  return summarize_phases(roots());
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
    nodes = spans_;
    arrows = flows_;
  }
  std::string out = "[";
  bool first = true;
  for (const PhaseNode& n : nodes) render_event(n, first, out);
  for (const FlowArrow& a : arrows) render_flow(a, first, out);
  out += first ? "]" : "\n]";
  out += "\n";
  return out;
}

PhaseSpan::PhaseSpan(std::string name) : saved_(current_span) {
  node_.name = std::move(name);
  node_.tid = this_thread_tid();
  node_.span_id = next_span_id();
  node_.parent_span_id = current_span.span_id;
  node_.rss_open_bytes = sampled_rss_bytes();
  node_.start_us = now_us();
  current_span = {node_.span_id, node_.parent_span_id};
}

PhaseSpan::~PhaseSpan() {
  node_.dur_us = now_us() - node_.start_us;
  node_.rss_close_bytes = sampled_rss_bytes();
  current_span = saved_;
  PhaseTrace::instance().record(std::move(node_));
}

namespace detail {

std::uint64_t trace_now_us() { return now_us(); }

std::uint32_t trace_thread_tid() { return this_thread_tid(); }

std::uint64_t next_flow_id() { return next_span_id(); }

}  // namespace detail

}  // namespace fbt::obs
