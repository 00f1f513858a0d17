#include "obs/report_tools.hpp"

#include <string>

#include <gtest/gtest.h>

#include "mutate.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "util/rng.hpp"

namespace fbt::obs {
namespace {

JsonValue parse_or_die(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(json_parse(text, v, error)) << error;
  return v;
}

/// A minimal but schema-shaped report the diff/render paths understand.
std::string report_json(double coverage, double tests, double walltime_ms) {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      R"({
  "schema_version": 2,
  "tool": "bench_flow_smoke",
  "git_sha": "abc1234",
  "timestamp_utc": "2026-01-01T00:00:00Z",
  "config": {"target": "s298"},
  "phases": [{"name": "flow", "count": 1, "total_ms": %.3f, "self_ms": 1.0, "children": []}],
  "counters": {"bist.lfsr_cycles": 4096},
  "gauges": {"flow.fault_coverage_percent": %.6g, "flow.num_tests": %.6g},
  "histograms": {},
  "analytics": {
    "convergence": [{"tests": 64, "detected": 100}, {"tests": 128, "detected": 150}],
    "segment_yield": [{"sequence": 0, "segment": 0, "seed": 7, "tests": 128, "newly_detected": 150, "peak_swa": 20.5}],
    "speculation": {"batches": 1, "lanes_evaluated": 64, "hits": 2, "wasted": 5}
  }
})",
      walltime_ms, coverage, tests);
  return buf;
}

TEST(JsonParse, ParsesReportShapedDocuments) {
  const JsonValue v = parse_or_die(report_json(91.25, 500, 10.0));
  ASSERT_TRUE(v.is_object());
  const JsonValue* gauges = v.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->find("flow.fault_coverage_percent")->as_number(),
                   91.25);
  const JsonValue* curve = v.find_path({"analytics", "convergence"});
  ASSERT_NE(curve, nullptr);
  ASSERT_EQ(curve->array.size(), 2u);
  EXPECT_DOUBLE_EQ(curve->array[1].find("detected")->as_number(), 150.0);
  // Key order is document order, not sorted.
  EXPECT_EQ(v.object[0].first, "schema_version");
  EXPECT_EQ(v.object[1].first, "tool");
}

TEST(JsonParse, RejectsMalformedInputWithPosition) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(json_parse("{\"a\": 1,}", v, error));
  EXPECT_NE(error.find("byte"), std::string::npos);
  EXPECT_FALSE(json_parse("[1, 2", v, error));
  EXPECT_FALSE(json_parse("", v, error));
  EXPECT_FALSE(json_parse("{} trailing", v, error));
}

TEST(JsonParse, HandlesEscapesAndLiterals) {
  const JsonValue v =
      parse_or_die(R"({"s": "a\"b\nc", "t": true, "n": null, "d": -1.5e2})");
  EXPECT_EQ(v.find("s")->string, "a\"b\nc");
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_TRUE(v.find("n")->is_null());
  EXPECT_DOUBLE_EQ(v.find("d")->as_number(), -150.0);
}

// Hostile input: every mutant of a report-shaped document parses or fails
// with an error message, never with an exception.
TEST(JsonFuzz, MutantsParseOrFailWithoutThrowing) {
  constexpr int kMutants = 20000;
  const std::string seed_doc = report_json(91.25, 500, 10.0);
  Pcg32 rng(0x150f);
  int parsed = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text =
        testing::mutate(seed_doc, rng, "{}[]\":,\\ -.+0123456789eEtrufalsn");
    JsonValue v;
    std::string error;
    bool ok = false;
    ASSERT_NO_THROW(ok = json_parse(text, v, error))
        << "mutant " << i << ": " << text;
    if (ok) {
      ++parsed;
    } else {
      EXPECT_NE(error.find("byte"), std::string::npos) << error;
    }
  }
  EXPECT_GT(parsed, 0);
}

TEST(DiffRunReports, PassesWhenWithinThresholds) {
  const JsonValue base = parse_or_die(report_json(91.25, 500, 10.0));
  const JsonValue cur = parse_or_die(report_json(91.0, 550, 100.0));
  const DiffResult result = diff_run_reports(base, cur, DiffThresholds{});
  EXPECT_FALSE(result.regression);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_NE(result.summary_text.find("coverage: 91.25% -> 91%"),
            std::string::npos);
}

TEST(DiffRunReports, FlagsCoverageDrop) {
  const JsonValue base = parse_or_die(report_json(91.25, 500, 10.0));
  const JsonValue cur = parse_or_die(report_json(89.0, 500, 10.0));
  const DiffResult result = diff_run_reports(base, cur, DiffThresholds{});
  ASSERT_TRUE(result.regression);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_NE(result.violations[0].find("coverage"), std::string::npos);
}

TEST(DiffRunReports, FlagsTestCountGrowth) {
  const JsonValue base = parse_or_die(report_json(91.25, 500, 10.0));
  const JsonValue cur = parse_or_die(report_json(91.25, 700, 10.0));
  const DiffResult result = diff_run_reports(base, cur, DiffThresholds{});
  ASSERT_TRUE(result.regression);
  EXPECT_NE(result.violations[0].find("test count"), std::string::npos);
}

TEST(DiffRunReports, WalltimeGateIsOptIn) {
  const JsonValue base = parse_or_die(report_json(91.25, 500, 10.0));
  const JsonValue cur = parse_or_die(report_json(91.25, 500, 1000.0));
  // Disabled by default: machine-dependent.
  EXPECT_FALSE(diff_run_reports(base, cur, DiffThresholds{}).regression);
  DiffThresholds gated;
  gated.max_walltime_increase_percent = 50.0;
  const DiffResult result = diff_run_reports(base, cur, gated);
  ASSERT_TRUE(result.regression);
  EXPECT_NE(result.violations[0].find("walltime"), std::string::npos);
}

TEST(DiffRunReports, NegativeThresholdDisablesCheck) {
  const JsonValue base = parse_or_die(report_json(91.25, 500, 10.0));
  const JsonValue cur = parse_or_die(report_json(50.0, 5000, 10.0));
  DiffThresholds off;
  off.max_coverage_drop = -1.0;
  off.max_tests_increase_percent = -1.0;
  EXPECT_FALSE(diff_run_reports(base, cur, off).regression);
}

TEST(DiffRunReports, PackSpeedupGateIsOptIn) {
  // bench_ppsfp's gated gauge: serial grade walltime / pack-64 walltime.
  // The gate reads the *current* report (the bound is absolute, not
  // relative to the baseline) and is off unless requested.
  const JsonValue base =
      parse_or_die(R"({"gauges": {"fault.pack_speedup_64": 4.5}})");
  const JsonValue cur =
      parse_or_die(R"({"gauges": {"fault.pack_speedup_64": 3.2}})");
  EXPECT_FALSE(diff_run_reports(base, cur, DiffThresholds{}).regression);

  DiffThresholds gated;
  gated.min_pack_speedup = 4.0;
  const DiffResult result = diff_run_reports(base, cur, gated);
  ASSERT_TRUE(result.regression);
  EXPECT_NE(result.violations[0].find("pack-64"), std::string::npos);

  gated.min_pack_speedup = 3.0;
  EXPECT_FALSE(diff_run_reports(base, cur, gated).regression);
}

TEST(DiffRunReports, ObsOverheadGateIsOptIn) {
  // bench_obs_overhead publishes obs.flow_run_ms (min-of-N walltime) in
  // both the FBT_OBS=OFF baseline and the ON current report; the gate
  // bounds the relative increase.
  const JsonValue off =
      parse_or_die(R"({"gauges": {"obs.flow_run_ms": 100.0}})");
  const JsonValue on_ok =
      parse_or_die(R"({"gauges": {"obs.flow_run_ms": 101.5}})");
  const JsonValue on_slow =
      parse_or_die(R"({"gauges": {"obs.flow_run_ms": 104.0}})");
  EXPECT_FALSE(diff_run_reports(off, on_slow, DiffThresholds{}).regression);

  DiffThresholds gated;
  gated.max_obs_overhead_pct = 2.0;
  EXPECT_FALSE(diff_run_reports(off, on_ok, gated).regression);
  const DiffResult result = diff_run_reports(off, on_slow, gated);
  ASSERT_TRUE(result.regression);
  EXPECT_NE(result.violations[0].find("observability overhead"),
            std::string::npos);
  EXPECT_NE(result.summary_text.find("obs_flow_run_ms"), std::string::npos);

  // A baseline without the gauge (or zero) cannot regress.
  const JsonValue empty = parse_or_die("{}");
  EXPECT_FALSE(diff_run_reports(empty, on_slow, gated).regression);
}

TEST(DiffRunReports, MissingSectionsDiffAsZeros) {
  const JsonValue base = parse_or_die("{}");
  const JsonValue cur = parse_or_die(report_json(91.25, 500, 10.0));
  // Coverage went 0 -> 91.25 (an improvement); never a regression.
  EXPECT_FALSE(diff_run_reports(base, cur, DiffThresholds{}).regression);
}

TEST(DiffRunReports, SummaryListsChangedMetrics) {
  const JsonValue base = parse_or_die(report_json(91.25, 500, 10.0));
  const JsonValue cur = parse_or_die(report_json(91.25, 520, 10.0));
  const DiffResult result = diff_run_reports(base, cur, DiffThresholds{});
  EXPECT_NE(result.summary_text.find("gauges.flow.num_tests: 500 -> 520"),
            std::string::npos);
}

/// Schema-v3 report with a memory section. bytes_per_gate is the gated
/// deterministic quantity; peak_rss the opt-in machine-dependent one.
std::string report_json_v3(double peak_rss, double bytes_per_gate) {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      R"({
  "schema_version": 3,
  "tool": "bench_scale",
  "git_sha": "abc1234",
  "timestamp_utc": "2026-01-01T00:00:00Z",
  "config": {},
  "phases": [{"name": "scale", "count": 4, "total_ms": 100.0, "self_ms": 1.0, "rss_delta_bytes": 1048576, "alloc_bytes": 2048, "alloc_count": 2, "children": []}],
  "counters": {},
  "gauges": {"flow.fault_coverage_percent": 91.25, "flow.num_tests": 500},
  "histograms": {},
  "analytics": {"convergence": [], "segment_yield": []},
  "memory": {
    "peak_rss_bytes": %.6g,
    "current_rss_bytes": 100000,
    "allocated_bytes": 5000,
    "allocation_count": 3,
    "footprints": {"netlist": 2000000, "fault_list": 500000},
    "bytes_per_gate": %.6g,
    "bytes_per_fault": 40.0
  }
})",
      peak_rss, bytes_per_gate);
  return buf;
}

TEST(DiffRunReports, MemoryGatesAreOptIn) {
  const JsonValue base = parse_or_die(report_json_v3(1e8, 100.0));
  // +20% bytes-per-gate and 3x peak RSS: passes with default thresholds.
  const JsonValue cur = parse_or_die(report_json_v3(3e8, 120.0));
  EXPECT_FALSE(diff_run_reports(base, cur, DiffThresholds{}).regression);
}

TEST(DiffRunReports, FlagsBytesPerGateGrowth) {
  const JsonValue base = parse_or_die(report_json_v3(1e8, 100.0));
  const JsonValue cur = parse_or_die(report_json_v3(1e8, 120.0));
  DiffThresholds gated;
  gated.max_bytes_per_gate_increase_percent = 10.0;
  const DiffResult result = diff_run_reports(base, cur, gated);
  ASSERT_TRUE(result.regression);
  EXPECT_NE(result.violations[0].find("bytes per gate"), std::string::npos);
  // Within threshold: +8% passes at the 10% gate.
  const JsonValue ok = parse_or_die(report_json_v3(1e8, 108.0));
  EXPECT_FALSE(diff_run_reports(base, ok, gated).regression);
}

TEST(DiffRunReports, FlagsPeakRssGrowth) {
  const JsonValue base = parse_or_die(report_json_v3(1e8, 100.0));
  const JsonValue cur = parse_or_die(report_json_v3(2.5e8, 100.0));
  DiffThresholds gated;
  gated.max_peak_rss_increase_percent = 100.0;
  const DiffResult result = diff_run_reports(base, cur, gated);
  ASSERT_TRUE(result.regression);
  EXPECT_NE(result.violations[0].find("peak RSS"), std::string::npos);
}

TEST(DiffRunReports, SchemaV2ReportsDiffWithoutMemorySection) {
  // A v2 baseline has no "memory" section: reads as 0, never crashes, and
  // with the gates enabled a 0 baseline cannot regress (division guard).
  const JsonValue base = parse_or_die(report_json(91.25, 500, 10.0));
  const JsonValue cur = parse_or_die(report_json_v3(1e8, 120.0));
  DiffThresholds gated;
  gated.max_bytes_per_gate_increase_percent = 10.0;
  gated.max_peak_rss_increase_percent = 100.0;
  const DiffResult result = diff_run_reports(base, cur, gated);
  EXPECT_FALSE(result.regression);
  EXPECT_NE(result.summary_text.find("peak_rss_bytes: 0 ->"),
            std::string::npos);
}

TEST(RenderHtmlDashboard, ProducesSelfContainedPage) {
  const JsonValue report = parse_or_die(report_json(91.25, 500, 10.0));
  const std::string html = render_html_dashboard(
      report, "{\"seq\": 0, \"type\": \"construct_started\"}\n");
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("bench_flow_smoke"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);         // convergence curve
  EXPECT_NE(html.find("<polyline"), std::string::npos);
  EXPECT_NE(html.find("newly_detected"), std::string::npos);
  EXPECT_NE(html.find("construct_started"), std::string::npos);
  // No external resources: self-contained means no http(s) references.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
}

TEST(RenderHtmlDashboard, EscapesUntrustedStrings) {
  const JsonValue report = parse_or_die(
      R"({"tool": "<script>alert(1)</script>", "config": {"k": "<b>"}})");
  const std::string html = render_html_dashboard(report, "");
  EXPECT_EQ(html.find("<script>"), std::string::npos);
  EXPECT_NE(html.find("&lt;script&gt;"), std::string::npos);
}

TEST(RenderHtmlDashboard, RoundTripsRealCollectedReport) {
  register_core_counters();
  const RunReportData data = collect_run_report("dashboard_smoke", {});
  const JsonValue report = parse_or_die(render_run_report(data));
  const std::string html = render_html_dashboard(report, "");
  EXPECT_NE(html.find("dashboard_smoke"), std::string::npos);
  EXPECT_NE(html.find("bist.lfsr_cycles"), std::string::npos);
  EXPECT_NE(html.find("<h2>Memory</h2>"), std::string::npos);
}

TEST(RenderHtmlDashboard, MemoryPanelRendersFootprintsAndPhaseDeltas) {
  const JsonValue report = parse_or_die(report_json_v3(1e8, 100.0));
  const std::string html = render_html_dashboard(report, "");
  EXPECT_NE(html.find("peak_rss_bytes"), std::string::npos);
  EXPECT_NE(html.find("Structure footprints"), std::string::npos);
  EXPECT_NE(html.find("Per-phase RSS delta"), std::string::npos);
  EXPECT_NE(html.find("class=\"bar\""), std::string::npos);
}

TEST(RenderHtmlDashboard, SchemaV2ReportStillRenders) {
  // v2 reports have no memory section; the panel degrades to a note and the
  // rest of the page is unaffected.
  const JsonValue report = parse_or_die(report_json(91.25, 500, 10.0));
  const std::string html = render_html_dashboard(report, "");
  EXPECT_NE(html.find("no memory data (schema v2 report)"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
}

/// Schema-v4 report with scheduler utilization and request-latency
/// histograms, as a serve daemon writes at exit.
std::string report_json_v4() {
  return R"({
  "schema_version": 4,
  "tool": "fbt_serve",
  "git_sha": "abc1234",
  "timestamp_utc": "2026-01-01T00:00:00Z",
  "config": {},
  "phases": [],
  "counters": {},
  "gauges": {},
  "histograms": {
    "jobs.run_ms": {"count": 40, "sum": 100.0, "mean": 2.5, "p50": 2.0, "p90": 4.0, "p99": 5.0, "p99_clamped": false, "buckets": []},
    "serve.request_total_cold_ms": {"count": 3, "sum": 2400.0, "mean": 800.0, "p50": 750.0, "p90": 900.0, "p99": 1000.0, "p99_clamped": true, "buckets": []},
    "serve.request_total_warm_ms": {"count": 9, "sum": 4.5, "mean": 0.5, "p50": 0.4, "p90": 0.9, "p99": 1.0, "p99_clamped": false, "buckets": []}
  },
  "analytics": {"convergence": [], "segment_yield": []},
  "jobs": {"workers": 4, "submitted": 40, "executed": 40, "steals": 6, "busy_ms": 90.000, "idle_ms": 310.000, "utilization": 0.225},
  "memory": {"peak_rss_bytes": 1000, "current_rss_bytes": 900, "allocated_bytes": 0, "allocation_count": 0, "footprints": {}, "bytes_per_gate": 0, "bytes_per_fault": 0}
})";
}

TEST(RenderHtmlDashboard, SchedulerAndRequestLatencyPanels) {
  const JsonValue report = parse_or_die(report_json_v4());
  const std::string html = render_html_dashboard(report, "");
  EXPECT_NE(html.find("<h2>Scheduler</h2>"), std::string::npos);
  EXPECT_NE(html.find("utilization"), std::string::npos);
  EXPECT_NE(html.find("jobs.run_ms"), std::string::npos);
  EXPECT_NE(html.find("<h2>Request latency</h2>"), std::string::npos);
  EXPECT_NE(html.find("serve.request_total_cold_ms"), std::string::npos);
  EXPECT_NE(html.find("serve.request_total_warm_ms"), std::string::npos);
  // The cold p99 was clamped to the last bucket: marked "+".
  EXPECT_NE(html.find("<td>1000+</td>"), std::string::npos);
}

TEST(RenderHtmlDashboard, PreV4ReportDegradesSchedulerPanels) {
  const JsonValue report = parse_or_die(report_json_v3(1e8, 100.0));
  const std::string html = render_html_dashboard(report, "");
  EXPECT_NE(html.find("no scheduler data (pre-v4 report)"), std::string::npos);
  EXPECT_NE(html.find("no request latency data in this run"),
            std::string::npos);
}

}  // namespace
}  // namespace fbt::obs
