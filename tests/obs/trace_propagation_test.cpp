// Cross-thread trace propagation: TraceContext capture/adoption, building
// the tree from the flat span log, the Chrome export's span-id args and flow
// arrows, and -- under FBT_OBS=ON -- the JobSystem's context re-entry on the
// workers that run submitted tasks and parallel_for's helper lanes.
// The heavy concurrent tests double as TSan targets (the obs label runs in
// the -fsanitize=thread CI job).
#include "obs/phase.hpp"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "jobs/job_system.hpp"
#include "obs/event_journal.hpp"
#include "obs/json.hpp"

namespace fbt::obs {
namespace {

/// Depth-first search of a built span tree by span name.
const PhaseNode* find_named(const std::vector<PhaseNode>& nodes,
                            const std::string& name) {
  for (const PhaseNode& n : nodes) {
    if (n.name == name) return &n;
    if (const PhaseNode* hit = find_named(n.children, name)) return hit;
  }
  return nullptr;
}

std::size_t count_named(const std::vector<PhaseNode>& nodes,
                        const std::string& name) {
  std::size_t total = 0;
  for (const PhaseNode& n : nodes) {
    total += (n.name == name ? 1 : 0) + count_named(n.children, name);
  }
  return total;
}

TEST(TraceContext, FollowsTheOpenSpanStack) {
  PhaseTrace::instance().clear();
  EXPECT_EQ(current_trace_context().span_id, 0u);
  {
    PhaseSpan outer("ctx_outer");
    const TraceContext outer_ctx = current_trace_context();
    EXPECT_NE(outer_ctx.span_id, 0u);
    {
      PhaseSpan inner("ctx_inner");
      const TraceContext inner_ctx = current_trace_context();
      EXPECT_NE(inner_ctx.span_id, outer_ctx.span_id);
      EXPECT_EQ(inner_ctx.parent_id, outer_ctx.span_id);
    }
    EXPECT_EQ(current_trace_context().span_id, outer_ctx.span_id);
  }
  EXPECT_EQ(current_trace_context().span_id, 0u);
}

TEST(TraceContext, AdoptionParentsSpansAcrossRawThreads) {
  PhaseTrace::instance().clear();
  TraceContext captured{};
  {
    PhaseSpan outer("adopt_outer");
    captured = current_trace_context();
    std::thread other([captured] {
      // Without adoption the remote span would be an orphan root.
      TaskTraceScope scope(captured);
      EXPECT_EQ(current_trace_context().span_id, captured.span_id);
      PhaseSpan remote("adopt_remote");
    });
    other.join();
  }
  // The remote span closed on another thread and still parents under the
  // outer span.
  const std::vector<PhaseNode> roots = PhaseTrace::instance().roots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].name, "adopt_outer");
  const PhaseNode* remote = find_named(roots[0].children, "adopt_remote");
  ASSERT_NE(remote, nullptr);
  EXPECT_EQ(remote->parent_span_id, captured.span_id);
}

PhaseNode span(const char* name, std::uint64_t id, std::uint64_t parent,
               std::uint64_t start_us, std::uint32_t tid = 1) {
  PhaseNode node;
  node.name = name;
  node.span_id = id;
  node.parent_span_id = parent;
  node.start_us = start_us;
  node.tid = tid;
  return node;
}

TEST(BuildPhaseTree, OrdersSiblingsByStartAcrossThreads) {
  // Logged in completion order: the other thread's spans finish around the
  // local child, but the tree lists all three by start time.
  const std::vector<PhaseNode> tree = build_phase_tree({
      span("c_remote_late", 13, 10, 90, 2),
      span("c_local", 11, 10, 50),
      span("c_remote_early", 12, 10, 10, 3),
      span("p", 10, 0, 0),
  });
  ASSERT_EQ(tree.size(), 1u);
  ASSERT_EQ(tree[0].children.size(), 3u);
  EXPECT_EQ(tree[0].children[0].name, "c_remote_early");
  EXPECT_EQ(tree[0].children[1].name, "c_local");
  EXPECT_EQ(tree[0].children[2].name, "c_remote_late");
  for (const PhaseNode& child : tree[0].children) {
    EXPECT_TRUE(child.children.empty());
  }
}

TEST(BuildPhaseTree, EqualStartTimesOrderBySpanId) {
  // A helper-lane span and a same-thread sibling that began in the same
  // microsecond: the one opened first (smaller id) comes first, whichever
  // closed first.
  const std::vector<PhaseNode> tree = build_phase_tree({
      span("helper_lane", 23, 20, 50, 2),
      span("same_thread", 22, 20, 50, 1),
      span("caller", 20, 0, 40),
  });
  ASSERT_EQ(tree.size(), 1u);
  ASSERT_EQ(tree[0].children.size(), 2u);
  EXPECT_EQ(tree[0].children[0].name, "same_thread");
  EXPECT_EQ(tree[0].children[1].name, "helper_lane");
}

TEST(BuildPhaseTree, UnrecordedParentIsARootAndRootsKeepLogOrder) {
  const std::vector<PhaseNode> tree = build_phase_tree({
      span("late_start", 7, 0, 90),
      span("orphan", 5, 4242, 10),  // parent never recorded
      span("early_start", 6, 0, 0),
  });
  ASSERT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree[0].name, "late_start");
  EXPECT_EQ(tree[1].name, "orphan");
  EXPECT_EQ(tree[2].name, "early_start");
}

TEST(PhaseTraceRoots, ChainsOfCrossThreadParentsResolve) {
  // parent -> child -> grandchild, each on its own thread: the log holds
  // them in completion order (grandchild first), the tree as one chain.
  PhaseTrace::instance().clear();
  {
    PhaseSpan parent("chain_parent");
    std::thread([ctx = current_trace_context()] {
      TaskTraceScope scope(ctx);
      PhaseSpan child("chain_child");
      std::thread([inner_ctx = current_trace_context()] {
        TaskTraceScope inner_scope(inner_ctx);
        PhaseSpan grandchild("chain_grandchild");
      }).join();
    }).join();
  }
  const std::vector<PhaseNode> roots = PhaseTrace::instance().roots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].name, "chain_parent");
  ASSERT_EQ(roots[0].children.size(), 1u);
  const PhaseNode& child = roots[0].children[0];
  EXPECT_EQ(child.name, "chain_child");
  EXPECT_NE(child.tid, roots[0].tid);
  ASSERT_EQ(child.children.size(), 1u);
  EXPECT_EQ(child.children[0].name, "chain_grandchild");
}

TEST(PhaseTraceRoots, SpanWhoseParentWasClearedIsARoot) {
  PhaseTrace::instance().clear();
  TraceContext gone{};
  {
    PhaseSpan parent("cleared_parent");
    gone = current_trace_context();
  }
  PhaseTrace::instance().clear();
  {
    TaskTraceScope scope(gone);
    PhaseSpan orphan("orphan");
  }
  const std::vector<PhaseNode> roots = PhaseTrace::instance().roots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].name, "orphan");
  EXPECT_EQ(roots[0].parent_span_id, gone.span_id);
}

TEST(PhaseTraceRoots, ClosedSpanUnderAnOpenParentIsARoot) {
  PhaseTrace::instance().clear();
  {
    PhaseSpan parent("open_parent");
    { PhaseSpan child("closed_child"); }
    // The parent is not recorded yet, so its closed child reads as a root.
    const std::vector<PhaseNode> roots = PhaseTrace::instance().roots();
    ASSERT_EQ(roots.size(), 1u);
    EXPECT_EQ(roots[0].name, "closed_child");
  }
  const std::vector<PhaseNode> roots = PhaseTrace::instance().roots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].name, "open_parent");
  ASSERT_EQ(roots[0].children.size(), 1u);
  EXPECT_EQ(roots[0].children[0].name, "closed_child");
}

#if FBT_OBS_ENABLED

TEST(JobSystemTracing, SubmittedTasksParentUnderTheSubmitSite) {
  PhaseTrace::instance().clear();
  jobs::JobSystem pool(4);
  constexpr int kTasks = 32;
  {
    PhaseSpan root("jobs_root");
    std::vector<jobs::TaskHandle> handles;
    for (int i = 0; i < kTasks; ++i) {
      handles.push_back(pool.submit([] { PhaseSpan task("jobs_task"); }));
    }
    for (const jobs::TaskHandle& h : handles) pool.wait(h);
  }
  const std::vector<PhaseNode> roots = PhaseTrace::instance().roots();
  const PhaseNode* root = find_named(roots, "jobs_root");
  ASSERT_NE(root, nullptr);
  // Every task span must parent under the submitting span -- none dropped,
  // none left dangling at the top level.
  EXPECT_EQ(count_named(root->children, "jobs_task"),
            static_cast<std::size_t>(kTasks));
  EXPECT_EQ(count_named(roots, "jobs_task"),
            static_cast<std::size_t>(kTasks));
}

TEST(JobSystemTracing, ChromeExportCarriesSpanIdsAndFlowArrows) {
  PhaseTrace::instance().clear();
  jobs::JobSystem pool(2);
  {
    PhaseSpan root("flow_root");
    std::vector<jobs::TaskHandle> handles;
    for (int i = 0; i < 8; ++i) {
      handles.push_back(pool.submit([] { PhaseSpan task("flow_task"); }));
    }
    for (const jobs::TaskHandle& h : handles) pool.wait(h);
  }
  EXPECT_FALSE(PhaseTrace::instance().flows().empty());

  const std::string json = PhaseTrace::instance().chrome_trace_json();
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(json, doc, error)) << error;
  ASSERT_TRUE(doc.is_array());

  std::set<double> span_ids;
  std::set<double> flow_starts;
  std::set<double> flow_finishes;
  for (const JsonValue& event : doc.array) {
    const JsonValue* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    const std::string kind = ph->as_string("");
    if (kind == "X") {
      const JsonValue* args = event.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("span_id"), nullptr);
      ASSERT_NE(args->find("parent_span_id"), nullptr);
      span_ids.insert(args->find("span_id")->as_number());
    } else if (kind == "s") {
      flow_starts.insert(event.find("id")->as_number());
    } else if (kind == "f") {
      flow_finishes.insert(event.find("id")->as_number());
    }
  }
  // Parent ids reference recorded spans (or 0 = root).
  for (const JsonValue& event : doc.array) {
    if (event.find("ph")->as_string("") != "X") continue;
    const double parent = event.find("args")->find("parent_span_id")->as_number();
    if (parent != 0.0) {
      EXPECT_TRUE(span_ids.count(parent) != 0) << parent;
    }
  }
  // Every flow start has a matching finish and vice versa.
  EXPECT_FALSE(flow_starts.empty());
  EXPECT_EQ(flow_starts, flow_finishes);
}

TEST(JobSystemTracing, BlockedSiblingsLandOnTwoWorkerRows) {
  // Forces a cross-thread hop between parallel_for's lanes: the blocker
  // index waits, without yielding its lane, until its sibling has started.
  // A lane stuck in the blocker cannot start the sibling, so a helper lane
  // on a worker runs one of the two, and the Chrome trace must show them on
  // two timeline rows.
  PhaseTrace::instance().clear();
  std::atomic<bool> sibling_started{false};
  std::atomic<bool> timed_out{false};
  {
    jobs::JobSystem pool(2);
    PhaseSpan root("hop_root");
    pool.parallel_for(2, [&](std::size_t i) {
      if (i == 0) {
        PhaseSpan span("hop_sibling");
        sibling_started.store(true, std::memory_order_release);
        return;
      }
      PhaseSpan span("hop_blocker");
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!sibling_started.load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out.store(true);
          return;
        }
        std::this_thread::yield();
      }
    });
  }
  ASSERT_FALSE(timed_out.load()) << "the sibling never started on another thread";

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(PhaseTrace::instance().chrome_trace_json(), doc, error))
      << error;
  double blocker_tid = -1.0;
  double sibling_tid = -1.0;
  for (const JsonValue& event : doc.array) {
    if (event.find("ph")->as_string("") != "X") continue;
    const std::string name = event.find("name")->as_string("");
    const double tid = event.find("tid")->as_number();
    if (name == "hop_blocker") blocker_tid = tid;
    if (name == "hop_sibling") sibling_tid = tid;
  }
  ASSERT_GE(blocker_tid, 0.0);
  ASSERT_GE(sibling_tid, 0.0);
  EXPECT_NE(blocker_tid, sibling_tid);
}

// TSan stress: concurrent callers, each lane nesting its own parallel_for.
// Context re-entry on the helper lanes must never corrupt the phase tree or
// drop spans.
TEST(JobSystemTracing, ConcurrentNestedLanesKeepEverySpan) {
  PhaseTrace::instance().clear();
  constexpr int kOuter = 16;
  constexpr int kInner = 8;
  std::atomic<int> executed{0};
  {
    jobs::JobSystem pool(4);
    PhaseSpan root("stress_root");
    pool.parallel_for(kOuter, [&pool, &executed](std::size_t) {
      PhaseSpan mid("stress_mid");
      pool.parallel_for(kInner, [&executed](std::size_t) {
        PhaseSpan leaf("stress_leaf");
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  EXPECT_EQ(executed.load(), kOuter * kInner);
  const std::vector<PhaseNode> roots = PhaseTrace::instance().roots();
  EXPECT_EQ(count_named(roots, "stress_mid"),
            static_cast<std::size_t>(kOuter));
  EXPECT_EQ(count_named(roots, "stress_leaf"),
            static_cast<std::size_t>(kOuter * kInner));
  // Every mid span is a direct child of the root whose parallel_for ran it,
  // on whichever lane: no outer index runs nested inside another.
  const PhaseNode* root = find_named(roots, "stress_root");
  ASSERT_NE(root, nullptr);
  std::size_t direct_mids = 0;
  for (const PhaseNode& child : root->children) {
    direct_mids += child.name == "stress_mid" ? 1 : 0;
  }
  EXPECT_EQ(direct_mids, static_cast<std::size_t>(kOuter));
}

TEST(JobSystemTracing, HelperLaneKeepsItsCallersContext) {
  // One of the two indices runs on the helper lane (a worker): its span must
  // parent under the caller's span, and its event must land in the caller's
  // journal, not in the process journal the worker would otherwise use.
  PhaseTrace::instance().clear();
  jobs::JobSystem pool(2);
  const std::size_t process_events = journal().size();
  EventJournal caller_journal;
  std::atomic<bool> sibling_started{false};
  std::thread::id helper_thread;
  std::uint64_t caller_id = 0;
  {
    JournalScope scope(caller_journal);
    PhaseSpan caller("lane_caller");
    caller_id = current_trace_context().span_id;
    const std::thread::id caller_thread = std::this_thread::get_id();
    pool.parallel_for(2, [&](std::size_t i) {
      // Index 1 holds its lane until the other lane took index 0, so the
      // two run on the caller and on the helper, in either order.
      if (i == 0) {
        sibling_started.store(true, std::memory_order_release);
      } else {
        while (!sibling_started.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      }
      if (std::this_thread::get_id() == caller_thread) return;
      helper_thread = std::this_thread::get_id();
      PhaseSpan span("lane_helper");
      journal().emit("lane_event", {});
    });
  }
  ASSERT_NE(helper_thread, std::thread::id{});

  const std::vector<PhaseNode> roots = PhaseTrace::instance().roots();
  const PhaseNode* helper_span = find_named(roots, "lane_helper");
  ASSERT_NE(helper_span, nullptr);
  EXPECT_EQ(helper_span->parent_span_id, caller_id);
  const PhaseNode* caller = find_named(roots, "lane_caller");
  ASSERT_NE(caller, nullptr);
  EXPECT_NE(find_named(caller->children, "lane_helper"), nullptr);
  EXPECT_EQ(caller_journal.size(), 1u);
  EXPECT_EQ(journal().size(), process_events);
}

#endif  // FBT_OBS_ENABLED

}  // namespace
}  // namespace fbt::obs
