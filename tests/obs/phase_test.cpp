#include "obs/phase.hpp"

#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fbt::obs {
namespace {

void spin_for_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(PhaseSpan, NestsAndAttributesChildTime) {
  PhaseTrace& trace = PhaseTrace::instance();
  trace.clear();
  {
    PhaseSpan outer("outer");
    spin_for_ms(2);
    {
      PhaseSpan inner("inner");
      spin_for_ms(4);
    }
    {
      PhaseSpan inner("inner");
      spin_for_ms(4);
    }
  }
  const std::vector<PhaseNode> roots = trace.roots();
  ASSERT_EQ(roots.size(), 1u);
  const PhaseNode& outer = roots[0];
  EXPECT_EQ(outer.name, "outer");
  ASSERT_EQ(outer.children.size(), 2u);
  EXPECT_EQ(outer.children[0].name, "inner");

  // The parent covers its children; self time excludes them.
  std::uint64_t child_us = 0;
  for (const PhaseNode& c : outer.children) {
    EXPECT_GE(c.start_us, outer.start_us);
    EXPECT_LE(c.start_us + c.dur_us, outer.start_us + outer.dur_us);
    child_us += c.dur_us;
  }
  EXPECT_GE(outer.dur_us, child_us);
  EXPECT_NEAR(outer.self_ms(), outer.total_ms() - child_us / 1000.0, 1e-9);
  EXPECT_GT(outer.self_ms(), 0.0);
}

TEST(PhaseSpan, SequentialRootsAccumulate) {
  PhaseTrace& trace = PhaseTrace::instance();
  trace.clear();
  { PhaseSpan a("first"); }
  { PhaseSpan b("second"); }
  const std::vector<PhaseNode> roots = trace.roots();
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_EQ(roots[0].name, "first");
  EXPECT_EQ(roots[1].name, "second");
  EXPECT_LE(roots[0].start_us, roots[1].start_us);
}

TEST(SummarizePhases, MergesSameNameSiblings) {
  PhaseNode parent;
  parent.name = "construct";
  parent.dur_us = 10000;
  for (int i = 0; i < 3; ++i) {
    PhaseNode grade;
    grade.name = "grade";
    grade.start_us = static_cast<std::uint64_t>(1000 * i);
    grade.dur_us = 2000;
    parent.children.push_back(grade);
  }
  const std::vector<PhaseSummary> summary = summarize_phases({parent});
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_EQ(summary[0].count, 1u);
  EXPECT_DOUBLE_EQ(summary[0].total_ms, 10.0);
  EXPECT_DOUBLE_EQ(summary[0].self_ms, 4.0);  // 10ms - 3 x 2ms
  ASSERT_EQ(summary[0].children.size(), 1u);
  EXPECT_EQ(summary[0].children[0].name, "grade");
  EXPECT_EQ(summary[0].children[0].count, 3u);
  EXPECT_DOUBLE_EQ(summary[0].children[0].total_ms, 6.0);
}

TEST(PhaseSpan, RecordsRssAtOpenAndClose) {
  PhaseTrace& trace = PhaseTrace::instance();
  trace.clear();
  { PhaseSpan span("rss_probe"); }
  const std::vector<PhaseNode> roots = trace.roots();
  ASSERT_EQ(roots.size(), 1u);
#if defined(__linux__)
  // The sampler reads /proc on Linux; a live process always has nonzero RSS.
  EXPECT_GT(roots[0].rss_open_bytes, 0u);
  EXPECT_GT(roots[0].rss_close_bytes, 0u);
#endif
  trace.clear();
}

TEST(SummarizePhases, AggregatesRssDelta) {
  PhaseNode a;
  a.name = "grade";
  a.rss_open_bytes = 1000;
  a.rss_close_bytes = 4000;
  PhaseNode b = a;
  b.rss_open_bytes = 4000;
  b.rss_close_bytes = 3000;  // shrank: negative delta sums in
  const std::vector<PhaseSummary> summary = summarize_phases({a, b});
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_EQ(summary[0].count, 2u);
  EXPECT_EQ(summary[0].rss_delta_bytes, 3000 - 1000);
}

TEST(PhaseTrace, TreeStringShowsNestingAndAggregation) {
  PhaseTrace& trace = PhaseTrace::instance();
  trace.clear();
  {
    PhaseSpan outer("construct");
    { PhaseSpan g("grade"); }
    { PhaseSpan g("grade"); }
  }
  const std::string tree = trace.tree_string();
  EXPECT_NE(tree.find("construct"), std::string::npos);
  EXPECT_NE(tree.find("  grade x2"), std::string::npos);
}

TEST(PhaseTrace, ConcurrentSpansFromWorkerThreadsDoNotInterleave) {
  // Regression for parallel fault grading: several threads completing spans
  // at once must neither corrupt the shared sink nor share a Chrome-trace
  // track. Each worker's roots carry that worker's thread id, nesting stays
  // per-thread, and every span arrives exactly once.
  PhaseTrace& trace = PhaseTrace::instance();
  trace.clear();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 25;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        PhaseSpan outer("worker_outer");
        PhaseSpan inner("worker_inner");
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const std::vector<PhaseNode> roots = trace.roots();
  ASSERT_EQ(roots.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  std::map<std::uint32_t, int> roots_per_tid;
  for (const PhaseNode& root : roots) {
    EXPECT_EQ(root.name, "worker_outer");
    ASSERT_EQ(root.children.size(), 1u);
    EXPECT_EQ(root.children[0].name, "worker_inner");
    // A child opened on the same thread carries the same tid and never
    // leaks into another thread's root.
    EXPECT_EQ(root.children[0].tid, root.tid);
    ++roots_per_tid[root.tid];
  }
  ASSERT_EQ(roots_per_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, count] : roots_per_tid) {
    EXPECT_EQ(count, kSpansPerThread) << "tid " << tid;
  }

  // The Chrome trace carries the per-thread track ids.
  const std::string json = trace.chrome_trace_json();
  for (const auto& [tid, count] : roots_per_tid) {
    EXPECT_NE(json.find("\"tid\": " + std::to_string(tid)),
              std::string::npos);
  }
  trace.clear();
}

TEST(PhaseTrace, ChromeTraceJsonListsEveryEvent) {
  PhaseTrace& trace = PhaseTrace::instance();
  trace.clear();
  {
    PhaseSpan outer("outer");
    { PhaseSpan inner("inner"); }
  }
  const std::string json = trace.chrome_trace_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);

  trace.clear();
  EXPECT_EQ(trace.chrome_trace_json(), "[]\n");
  EXPECT_EQ(trace.tree_string(), "");
}

}  // namespace
}  // namespace fbt::obs
