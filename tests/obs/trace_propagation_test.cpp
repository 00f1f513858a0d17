// Cross-thread trace propagation: TraceContext capture/adoption, detached
// roots, stitching, the Chrome export's span-id args and flow arrows, and --
// under FBT_OBS=ON -- the JobSystem's context re-entry on the workers that
// run submitted tasks and parallel_for's helper lanes.
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

/// Depth-first search of a stitched forest by span name.
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
  // Raw roots: the remote span is recorded detached, carrying the captured
  // parent id; stitching re-attaches it under the outer span.
  const std::vector<PhaseNode> raw = PhaseTrace::instance().roots();
  const PhaseNode* detached = find_named(raw, "adopt_remote");
  ASSERT_NE(detached, nullptr);
  EXPECT_EQ(detached->parent_span_id, captured.span_id);
  const std::vector<PhaseNode> stitched = PhaseTrace::instance().stitched_roots();
  const PhaseNode* outer = find_named(stitched, "adopt_outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_NE(find_named(outer->children, "adopt_remote"), nullptr);
}

TEST(StitchPhaseRoots, ReattachesByParentIdInStartOrder) {
  std::vector<PhaseNode> roots;
  PhaseNode parent;
  parent.name = "p";
  parent.span_id = 10;
  PhaseNode local_child;
  local_child.name = "c_local";
  local_child.span_id = 11;
  local_child.parent_span_id = 10;
  local_child.start_us = 50;
  parent.children.push_back(local_child);
  roots.push_back(parent);
  PhaseNode detached_early;
  detached_early.name = "c_detached_early";
  detached_early.span_id = 12;
  detached_early.parent_span_id = 10;
  detached_early.start_us = 10;
  roots.push_back(detached_early);
  PhaseNode detached_late;
  detached_late.name = "c_detached_late";
  detached_late.span_id = 13;
  detached_late.parent_span_id = 10;
  detached_late.start_us = 90;
  roots.push_back(detached_late);

  const std::vector<PhaseNode> stitched = stitch_phase_roots(std::move(roots));
  ASSERT_EQ(stitched.size(), 1u);
  ASSERT_EQ(stitched[0].children.size(), 3u);
  EXPECT_EQ(stitched[0].children[0].name, "c_detached_early");
  EXPECT_EQ(stitched[0].children[1].name, "c_local");
  EXPECT_EQ(stitched[0].children[2].name, "c_detached_late");
}

TEST(StitchPhaseRoots, ChainsOfDetachedRootsResolveTransitively) {
  // grandchild -> child -> parent, all recorded as separate roots (the
  // completion order across workers is arbitrary).
  PhaseNode parent;
  parent.name = "p";
  parent.span_id = 1;
  PhaseNode child;
  child.name = "c";
  child.span_id = 2;
  child.parent_span_id = 1;
  PhaseNode grandchild;
  grandchild.name = "g";
  grandchild.span_id = 3;
  grandchild.parent_span_id = 2;
  const std::vector<PhaseNode> stitched =
      stitch_phase_roots({grandchild, parent, child});
  ASSERT_EQ(stitched.size(), 1u);
  const PhaseNode* c = find_named(stitched, "c");
  ASSERT_NE(c, nullptr);
  EXPECT_NE(find_named(c->children, "g"), nullptr);
}

TEST(StitchPhaseRoots, UnresolvableParentStaysRoot) {
  PhaseNode orphan;
  orphan.name = "orphan";
  orphan.span_id = 5;
  orphan.parent_span_id = 4242;  // never recorded (e.g. cleared trace)
  const std::vector<PhaseNode> stitched = stitch_phase_roots({orphan});
  ASSERT_EQ(stitched.size(), 1u);
  EXPECT_EQ(stitched[0].name, "orphan");
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
  const std::vector<PhaseNode> stitched = PhaseTrace::instance().stitched_roots();
  const PhaseNode* root = find_named(stitched, "jobs_root");
  ASSERT_NE(root, nullptr);
  // Every task span must have been re-attached under the submitting span --
  // none dropped, none left dangling at the top level.
  EXPECT_EQ(count_named(root->children, "jobs_task"),
            static_cast<std::size_t>(kTasks));
  EXPECT_EQ(count_named(stitched, "jobs_task"),
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
    if (parent != 0.0) EXPECT_TRUE(span_ids.count(parent) != 0) << parent;
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
  const std::vector<PhaseNode> stitched = PhaseTrace::instance().stitched_roots();
  EXPECT_EQ(count_named(stitched, "stress_mid"),
            static_cast<std::size_t>(kOuter));
  EXPECT_EQ(count_named(stitched, "stress_leaf"),
            static_cast<std::size_t>(kOuter * kInner));
  // Every mid span is a direct child of the root whose parallel_for ran it,
  // on whichever lane: no outer index runs nested inside another.
  const PhaseNode* root = find_named(stitched, "stress_root");
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

  const std::vector<PhaseNode> raw = PhaseTrace::instance().roots();
  const PhaseNode* helper_span = find_named(raw, "lane_helper");
  ASSERT_NE(helper_span, nullptr);
  EXPECT_EQ(helper_span->parent_span_id, caller_id);
  const std::vector<PhaseNode> stitched = PhaseTrace::instance().stitched_roots();
  const PhaseNode* caller = find_named(stitched, "lane_caller");
  ASSERT_NE(caller, nullptr);
  EXPECT_NE(find_named(caller->children, "lane_helper"), nullptr);
  EXPECT_EQ(caller_journal.size(), 1u);
  EXPECT_EQ(journal().size(), process_events);
}

#endif  // FBT_OBS_ENABLED

}  // namespace
}  // namespace fbt::obs
