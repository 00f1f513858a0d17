#include "obs/report_tools.hpp"

#include <cstdio>
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

/// The sections of a schema-v5 report, as JSON text; tests override the
/// ones they exercise.
struct ReportDoc {
  std::string version = "5";
  std::string tool = "bench_flow_smoke";
  std::string config = R"({"target": "s298"})";
  std::string phases = "[]";
  std::string counters = "{}";
  std::string gauges = "{}";
  std::string histograms = "{}";
  std::string analytics = R"({"convergence": [], "segment_yield": []})";
  std::string jobs =
      R"({"workers": 0, "submitted": 0, "executed": 0, "busy_ms": 0.000, "idle_ms": 0.000, "utilization": 0})";
  std::string memory =
      R"({"peak_rss_bytes": 0, "current_rss_bytes": 0, "footprints": {}, "bytes_per_gate": 0, "bytes_per_fault": 0})";

  std::string json() const {
    return "{\n  \"schema_version\": " + version + ",\n  \"tool\": \"" + tool +
           "\",\n  \"git_sha\": \"abc1234\",\n  \"timestamp_utc\": "
           "\"2026-01-01T00:00:00Z\",\n  \"config\": " +
           config + ",\n  \"phases\": " + phases + ",\n  \"counters\": " +
           counters + ",\n  \"gauges\": " + gauges +
           ",\n  \"histograms\": " + histograms + ",\n  \"analytics\": " +
           analytics + ",\n  \"jobs\": " + jobs + ",\n  \"memory\": " +
           memory + "\n}\n";
  }
};

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// A flow_smoke-shaped report the diff/render paths understand.
std::string report_json(double coverage, double tests, double walltime_ms) {
  ReportDoc doc;
  doc.phases = R"([{"name": "flow", "count": 1, "total_ms": )" +
               fmt_num(walltime_ms) +
               R"(, "self_ms": 1.0, "rss_delta_bytes": 0, "children": []}])";
  doc.counters = R"({"bist.lfsr_cycles": 4096})";
  doc.gauges = R"({"flow.fault_coverage_percent": )" + fmt_num(coverage) +
               R"(, "flow.num_tests": )" + fmt_num(tests) + "}";
  doc.analytics = R"({
    "convergence": [{"tests": 64, "detected": 100}, {"tests": 128, "detected": 150}],
    "segment_yield": [{"sequence": 0, "segment": 0, "seed": 7, "tests": 128, "newly_detected": 150, "peak_swa": 20.5}]
  })";
  return doc.json();
}

/// A report whose only content is the given "gauges" object body.
std::string gauges_json(const std::string& gauges) {
  ReportDoc doc;
  doc.gauges = "{" + gauges + "}";
  return doc.json();
}

TEST(JsonParse, ParsesReportShapedDocuments) {
  const JsonValue v = parse_or_die(report_json(91.25, 500, 10.0));
  ASSERT_TRUE(v.is_object());
  const JsonValue* gauges = v.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->find("flow.fault_coverage_percent")->as_number(),
                   91.25);
  const JsonValue* curve = v.find("analytics")->find("convergence");
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
  const DiffResult result = diff_run_reports(base, cur, DiffBounds{});
  EXPECT_FALSE(result.regression);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_NE(result.summary_text.find("coverage: 91.25% -> 91%"),
            std::string::npos);
}

TEST(DiffRunReports, FlagsCoverageDrop) {
  const JsonValue base = parse_or_die(report_json(91.25, 500, 10.0));
  const JsonValue cur = parse_or_die(report_json(89.0, 500, 10.0));
  const DiffResult result = diff_run_reports(base, cur, DiffBounds{});
  ASSERT_TRUE(result.regression);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_NE(result.violations[0].find("coverage"), std::string::npos);
}

TEST(DiffRunReports, FlagsTestCountGrowth) {
  const JsonValue base = parse_or_die(report_json(91.25, 500, 10.0));
  const JsonValue cur = parse_or_die(report_json(91.25, 700, 10.0));
  const DiffResult result = diff_run_reports(base, cur, DiffBounds{});
  ASSERT_TRUE(result.regression);
  EXPECT_NE(result.violations[0].find("test count"), std::string::npos);
}

TEST(DiffRunReports, WalltimeGateIsOptIn) {
  const JsonValue base = parse_or_die(report_json(91.25, 500, 10.0));
  const JsonValue cur = parse_or_die(report_json(91.25, 500, 1000.0));
  // Disabled by default: machine-dependent.
  EXPECT_FALSE(diff_run_reports(base, cur, DiffBounds{}).regression);
  const DiffBounds gated{{"max-walltime-increase", 50.0}};
  const DiffResult result = diff_run_reports(base, cur, gated);
  ASSERT_TRUE(result.regression);
  EXPECT_NE(result.violations[0].find("walltime"), std::string::npos);
}

TEST(DiffRunReports, NegativeThresholdDisablesCheck) {
  const JsonValue base = parse_or_die(report_json(91.25, 500, 10.0));
  const JsonValue cur = parse_or_die(report_json(50.0, 5000, 10.0));
  const DiffBounds off{{"max-coverage-drop", -1.0},
                       {"max-tests-increase", -1.0}};
  EXPECT_FALSE(diff_run_reports(base, cur, off).regression);
}

TEST(DiffRunReports, PackSpeedupGateIsOptIn) {
  // bench_ppsfp's gated gauge: serial grade walltime / pack-64 walltime.
  // The gate reads the *current* report (the bound is absolute, not
  // relative to the baseline) and is off unless requested.
  const JsonValue base =
      parse_or_die(gauges_json(R"("fault.pack_speedup_64": 4.5)"));
  const JsonValue cur =
      parse_or_die(gauges_json(R"("fault.pack_speedup_64": 3.2)"));
  EXPECT_FALSE(diff_run_reports(base, cur, DiffBounds{}).regression);

  DiffBounds gated{{"min-pack-speedup", 4.0}};
  const DiffResult result = diff_run_reports(base, cur, gated);
  ASSERT_TRUE(result.regression);
  EXPECT_NE(result.violations[0].find("pack-64"), std::string::npos);

  gated["min-pack-speedup"] = 3.0;
  EXPECT_FALSE(diff_run_reports(base, cur, gated).regression);
}

TEST(DiffRunReports, ObsOverheadGateIsOptIn) {
  // bench_obs_overhead publishes obs.flow_run_ms (min-of-N walltime) in
  // both the FBT_OBS=OFF baseline and the ON current report; the gate
  // bounds the relative increase.
  const JsonValue off = parse_or_die(gauges_json(R"("obs.flow_run_ms": 100.0)"));
  const JsonValue on_ok =
      parse_or_die(gauges_json(R"("obs.flow_run_ms": 101.5)"));
  const JsonValue on_slow =
      parse_or_die(gauges_json(R"("obs.flow_run_ms": 104.0)"));
  EXPECT_FALSE(diff_run_reports(off, on_slow, DiffBounds{}).regression);

  const DiffBounds gated{{"max-obs-overhead-pct", 2.0}};
  EXPECT_FALSE(diff_run_reports(off, on_ok, gated).regression);
  const DiffResult result = diff_run_reports(off, on_slow, gated);
  ASSERT_TRUE(result.regression);
  EXPECT_NE(result.violations[0].find("observability overhead"),
            std::string::npos);
  EXPECT_NE(result.summary_text.find("obs_flow_run_ms"), std::string::npos);

  // A baseline without the gauge (or zero) cannot regress.
  const JsonValue empty = parse_or_die(gauges_json(""));
  EXPECT_FALSE(diff_run_reports(empty, on_slow, gated).regression);
}

TEST(DiffRunReports, AbsentMetricsDiffAsZeros) {
  const JsonValue base = parse_or_die(gauges_json(""));
  const JsonValue cur = parse_or_die(report_json(91.25, 500, 10.0));
  // Coverage went 0 -> 91.25 (an improvement); never a regression.
  EXPECT_FALSE(diff_run_reports(base, cur, DiffBounds{}).regression);
}

TEST(DiffRunReports, SummaryListsChangedMetrics) {
  const JsonValue base = parse_or_die(report_json(91.25, 500, 10.0));
  const JsonValue cur = parse_or_die(report_json(91.25, 520, 10.0));
  const DiffResult result = diff_run_reports(base, cur, DiffBounds{});
  EXPECT_NE(result.summary_text.find("gauges.flow.num_tests: 500 -> 520"),
            std::string::npos);
}

/// A bench_scale-shaped report. bytes_per_gate is the gated deterministic
/// quantity; peak_rss the opt-in machine-dependent one.
std::string memory_report_json(double peak_rss, double bytes_per_gate) {
  ReportDoc doc;
  doc.tool = "bench_scale";
  doc.config = "{}";
  doc.phases =
      R"([{"name": "scale", "count": 4, "total_ms": 100.0, "self_ms": 1.0, "rss_delta_bytes": 1048576, "children": []}])";
  doc.gauges = R"({"flow.fault_coverage_percent": 91.25, "flow.num_tests": 500})";
  doc.memory = R"({"peak_rss_bytes": )" + fmt_num(peak_rss) +
               R"(, "current_rss_bytes": 100000, "footprints": {"netlist": 2000000, "fault_list": 500000}, "bytes_per_gate": )" +
               fmt_num(bytes_per_gate) + R"(, "bytes_per_fault": 40.0})";
  return doc.json();
}

TEST(DiffRunReports, MemoryGatesAreOptIn) {
  const JsonValue base = parse_or_die(memory_report_json(1e8, 100.0));
  // +20% bytes-per-gate and 3x peak RSS: passes with default thresholds.
  const JsonValue cur = parse_or_die(memory_report_json(3e8, 120.0));
  EXPECT_FALSE(diff_run_reports(base, cur, DiffBounds{}).regression);
}

TEST(DiffRunReports, FlagsBytesPerGateGrowth) {
  const JsonValue base = parse_or_die(memory_report_json(1e8, 100.0));
  const JsonValue cur = parse_or_die(memory_report_json(1e8, 120.0));
  const DiffBounds gated{{"max-bytes-per-gate-increase", 10.0}};
  const DiffResult result = diff_run_reports(base, cur, gated);
  ASSERT_TRUE(result.regression);
  EXPECT_NE(result.violations[0].find("bytes per gate"), std::string::npos);
  // Within threshold: +8% passes at the 10% gate.
  const JsonValue ok = parse_or_die(memory_report_json(1e8, 108.0));
  EXPECT_FALSE(diff_run_reports(base, ok, gated).regression);
}

TEST(DiffRunReports, FlagsPeakRssGrowth) {
  const JsonValue base = parse_or_die(memory_report_json(1e8, 100.0));
  const JsonValue cur = parse_or_die(memory_report_json(2.5e8, 100.0));
  const DiffBounds gated{{"max-peak-rss-increase", 100.0}};
  const DiffResult result = diff_run_reports(base, cur, gated);
  ASSERT_TRUE(result.regression);
  EXPECT_NE(result.violations[0].find("peak RSS"), std::string::npos);
}

TEST(DiffRunReports, SeqSimGatesGateIsOptInAndExactAtZero) {
  // bench_flow_smoke counts sim.seqsim_gates_evaluated; CI gates it at 0 so
  // a kernel change cannot change the work, only its speed.
  auto counters_json = [](double gates) {
    ReportDoc doc;
    doc.counters =
        R"({"sim.seqsim_gates_evaluated": )" + fmt_num(gates) + "}";
    return doc.json();
  };
  const JsonValue base = parse_or_die(counters_json(909200));
  const JsonValue same = parse_or_die(counters_json(909200));
  const JsonValue more = parse_or_die(counters_json(909201));
  EXPECT_FALSE(diff_run_reports(base, more, DiffBounds{}).regression);

  const DiffBounds exact{{"max-seqsim-gates-increase", 0.0}};
  const DiffResult ok = diff_run_reports(base, same, exact);
  EXPECT_FALSE(ok.regression);
  EXPECT_NE(ok.summary_text.find("seqsim_gates_evaluated: 909200 -> 909200"),
            std::string::npos);
  const DiffResult result = diff_run_reports(base, more, exact);
  ASSERT_TRUE(result.regression);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_NE(result.violations[0].find("SeqSim gate evaluations grew"),
            std::string::npos);

  // A baseline without the counter cannot regress.
  const JsonValue empty = parse_or_die(ReportDoc{}.json());
  EXPECT_FALSE(diff_run_reports(empty, more, exact).regression);
}

/// PODEM's three gated work counts.
struct PodemWork {
  double backtracks;
  double decisions;
  double gate_evals;
};

/// A report carrying every gated metric.
std::string all_gates_json(double coverage, double tests, double walltime_ms,
                           double rss, double bytes_per_gate, double warm,
                           double pack, double obs_ms, double seqsim_gates,
                           PodemWork podem) {
  ReportDoc doc;
  doc.counters =
      R"({"sim.seqsim_gates_evaluated": )" + fmt_num(seqsim_gates) +
      R"(, "atpg.podem_backtracks": )" + fmt_num(podem.backtracks) +
      R"(, "atpg.podem_decisions_made": )" + fmt_num(podem.decisions) +
      R"(, "atpg.podem_gate_evals": )" + fmt_num(podem.gate_evals) + "}";
  doc.phases = R"([{"name": "flow", "count": 1, "total_ms": )" +
               fmt_num(walltime_ms) +
               R"(, "self_ms": 1.0, "rss_delta_bytes": 0, "children": []}])";
  doc.gauges = R"({"flow.fault_coverage_percent": )" + fmt_num(coverage) +
               R"(, "flow.num_tests": )" + fmt_num(tests) +
               R"(, "serve.warm_speedup": )" + fmt_num(warm) +
               R"(, "fault.pack_speedup_64": )" + fmt_num(pack) +
               R"(, "obs.flow_run_ms": )" + fmt_num(obs_ms) + "}";
  doc.memory = R"({"peak_rss_bytes": )" + fmt_num(rss) +
               R"(, "current_rss_bytes": 0, "footprints": {}, "bytes_per_gate": )" +
               fmt_num(bytes_per_gate) + R"(, "bytes_per_fault": 0})";
  return doc.json();
}

TEST(DiffRunReports, EveryGateKeepsItsFlagAndWording) {
  // CI scripts and readers match these lines; one regression per gate.
  const JsonValue base =
      parse_or_die(all_gates_json(91.25, 500, 10.0, 1e8, 100.0, 12.0, 4.5, 100.0,
                                  1000, {200, 400, 8000}));
  const JsonValue cur =
      parse_or_die(all_gates_json(89.0, 700, 100.0, 3e8, 120.0, 3.5, 1.5, 104.0,
                                  1100, {210, 440, 8400}));
  DiffBounds bounds;
  for (const DiffGate& gate : diff_gates()) {
    bounds[gate.flag] = gate.kind == GateKind::kMinimum ? 10.0 : 2.0;
  }
  const DiffResult result = diff_run_reports(base, cur, bounds);
  const std::vector<std::string> expected = {
      "fault coverage dropped 2.25 points (91.25% -> 89%), allowed 2",
      "test count grew 40% (500 -> 700), allowed 2%",
      "walltime grew 900% (10ms -> 100ms), allowed 2%",
      "peak RSS grew 200% (100000000 -> 300000000 bytes), allowed 2%",
      "bytes per gate grew 20% (100 -> 120), allowed 2%",
      "serve warm speedup 3.5x below required 10x",
      "PPSFP pack-64 grade speedup 1.5x below required 10x",
      "observability overhead 4% (100ms off -> 104ms on), allowed 2%",
      "SeqSim gate evaluations grew 10% (1000 -> 1100), allowed 2%",
      "PODEM backtracks grew 5% (200 -> 210), allowed 2%",
      "PODEM decisions grew 10% (400 -> 440), allowed 2%",
      "PODEM gate evaluations grew 5% (8000 -> 8400), allowed 2%"};
  EXPECT_EQ(result.violations, expected);
  EXPECT_EQ(result.summary_text.substr(0, result.summary_text.find("changed")),
            "coverage: 91.25% -> 89%\n"
            "tests: 500 -> 700\n"
            "walltime_ms: 10 -> 100\n"
            "peak_rss_bytes: 100000000 -> 300000000\n"
            "bytes_per_gate: 100 -> 120\n"
            "warm_speedup: 12 -> 3.5\n"
            "pack_speedup_64: 4.5 -> 1.5\n"
            "obs_flow_run_ms: 100 -> 104\n"
            "seqsim_gates_evaluated: 1000 -> 1100\n"
            "podem_backtracks: 200 -> 210\n"
            "podem_decisions_made: 400 -> 440\n"
            "podem_gate_evals: 8000 -> 8400\n");
  std::vector<std::string> flags;
  for (const DiffGate& gate : diff_gates()) flags.push_back(gate.flag);
  EXPECT_EQ(flags, (std::vector<std::string>{
                       "max-coverage-drop", "max-tests-increase",
                       "max-walltime-increase", "max-peak-rss-increase",
                       "max-bytes-per-gate-increase", "min-warm-speedup",
                       "min-pack-speedup", "max-obs-overhead-pct",
                       "max-seqsim-gates-increase",
                       "max-podem-backtracks-increase",
                       "max-podem-decisions-increase",
                       "max-podem-gate-evals-increase"}));
}

TEST(DiffRunReports, ExactCountsPrintEveryDigit) {
  // A +1 on an exact work count must read as moved in both the summary and
  // the violation, not as 1.7537e+09 -> 1.7537e+09.
  auto counters_json = [](const char* seqsim, const char* podem) {
    ReportDoc doc;
    doc.counters = std::string(R"({"sim.seqsim_gates_evaluated": )") +
                   seqsim + R"(, "atpg.podem_gate_evals": )" + podem + "}";
    return doc.json();
  };
  const JsonValue base = parse_or_die(counters_json("1753698600", "75198300"));
  const JsonValue more = parse_or_die(counters_json("1753698601", "75198301"));
  const DiffBounds exact{{"max-seqsim-gates-increase", 0.0},
                         {"max-podem-gate-evals-increase", 0.0}};
  const DiffResult result = diff_run_reports(base, more, exact);
  ASSERT_TRUE(result.regression);
  ASSERT_EQ(result.violations.size(), 2u);
  EXPECT_NE(result.violations[0].find("(1753698600 -> 1753698601), allowed 0%"),
            std::string::npos)
      << result.violations[0];
  EXPECT_NE(result.violations[1].find("(75198300 -> 75198301), allowed 0%"),
            std::string::npos)
      << result.violations[1];
  EXPECT_NE(result.summary_text.find(
                "seqsim_gates_evaluated: 1753698600 -> 1753698601\n"),
            std::string::npos);
  EXPECT_NE(result.summary_text.find(
                "podem_gate_evals: 75198300 -> 75198301\n"),
            std::string::npos);
  // Fractions keep six significant digits.
  const JsonValue cov = parse_or_die(report_json(91.25, 500, 10.0));
  EXPECT_NE(diff_run_reports(cov, cov).summary_text.find("91.25%"),
            std::string::npos);
}

TEST(DiffRunReports, DisabledOptInGatesLeaveTheSummary) {
  // Coverage through bytes per gate are always summarized; the speedups,
  // the overhead and the SeqSim and PODEM work counts only when gated.
  const JsonValue base =
      parse_or_die(all_gates_json(91.25, 500, 10.0, 1e8, 100.0, 12.0, 4.5, 100.0,
                                  1000, {200, 400, 8000}));
  const DiffResult result = diff_run_reports(base, base);
  EXPECT_FALSE(result.regression);
  EXPECT_NE(result.summary_text.find("bytes_per_gate: 100 -> 100"),
            std::string::npos);
  EXPECT_EQ(result.summary_text.find("warm_speedup"), std::string::npos);
  EXPECT_EQ(result.summary_text.find("obs_flow_run_ms"), std::string::npos);
  EXPECT_EQ(result.summary_text.find("seqsim_gates_evaluated"),
            std::string::npos);
  for (const char* line : {"podem_backtracks:", "podem_decisions_made:",
                           "podem_gate_evals:"}) {
    EXPECT_EQ(result.summary_text.find(line), std::string::npos) << line;
  }
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
  ReportDoc doc;
  doc.tool = "<script>alert(1)</script>";
  doc.config = R"({"k": "<b>"})";
  const JsonValue report = parse_or_die(doc.json());
  const std::string html = render_html_dashboard(report, "");
  EXPECT_EQ(html.find("<script>"), std::string::npos);
  EXPECT_NE(html.find("&lt;script&gt;"), std::string::npos);
}

TEST(RenderHtmlDashboard, RoundTripsRealCollectedReport) {
  registry().counter("test.dashboard_counter").add();
  const RunReportData data = collect_run_report("dashboard_smoke", {});
  const JsonValue report = parse_or_die(render_run_report(data));
  std::string error;
  EXPECT_TRUE(check_report_schema(report, error)) << error;
  const std::string html = render_html_dashboard(report, "");
  EXPECT_NE(html.find("dashboard_smoke"), std::string::npos);
  EXPECT_NE(html.find("test.dashboard_counter"), std::string::npos);
  EXPECT_NE(html.find("<h2>Memory</h2>"), std::string::npos);
}

TEST(RenderHtmlDashboard, MemoryPanelRendersFootprintsAndPhaseDeltas) {
  const JsonValue report = parse_or_die(memory_report_json(1e8, 100.0));
  const std::string html = render_html_dashboard(report, "");
  EXPECT_NE(html.find("peak_rss_bytes"), std::string::npos);
  EXPECT_NE(html.find("Structure footprints"), std::string::npos);
  EXPECT_NE(html.find("Per-phase RSS delta"), std::string::npos);
  EXPECT_NE(html.find("class=\"bar\""), std::string::npos);
}

/// A report with scheduler utilization and request-latency histograms, as a
/// serve daemon writes at exit.
std::string serve_report_json() {
  ReportDoc doc;
  doc.tool = "fbt_serve";
  doc.config = "{}";
  doc.histograms = R"({
    "jobs.run_ms": {"count": 40, "sum": 100.0, "mean": 2.5, "p50": 2.0, "p90": 4.0, "p99": 5.0, "p99_clamped": false, "buckets": []},
    "serve.request_total_cold_ms": {"count": 3, "sum": 2400.0, "mean": 800.0, "p50": 750.0, "p90": 900.0, "p99": 1000.0, "p99_clamped": true, "buckets": []},
    "serve.request_total_warm_ms": {"count": 9, "sum": 4.5, "mean": 0.5, "p50": 0.4, "p90": 0.9, "p99": 1.0, "p99_clamped": false, "buckets": []}
  })";
  doc.jobs =
      R"({"workers": 4, "submitted": 40, "executed": 40, "busy_ms": 90.000, "idle_ms": 310.000, "utilization": 0.225})";
  doc.memory =
      R"({"peak_rss_bytes": 1000, "current_rss_bytes": 900, "footprints": {}, "bytes_per_gate": 0, "bytes_per_fault": 0})";
  return doc.json();
}

TEST(RenderHtmlDashboard, SchedulerAndRequestLatencyPanels) {
  const JsonValue report = parse_or_die(serve_report_json());
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

TEST(RenderHtmlDashboard, IdleRunDegradesSchedulerPanels) {
  const JsonValue report = parse_or_die(memory_report_json(1e8, 100.0));
  const std::string html = render_html_dashboard(report, "");
  EXPECT_NE(html.find("no scheduler activity in this run"), std::string::npos);
  EXPECT_NE(html.find("no request latency data in this run"),
            std::string::npos);
}

TEST(CheckReportSchema, AcceptsTheCurrentSchema) {
  std::string error;
  EXPECT_TRUE(check_report_schema(parse_or_die(report_json(91.25, 500, 10.0)),
                                  error))
      << error;
  EXPECT_TRUE(check_report_schema(parse_or_die(serve_report_json()), error))
      << error;
}

TEST(CheckReportSchema, RejectsAnOlderVersion) {
  ReportDoc doc;
  doc.version = "4";
  std::string error;
  EXPECT_FALSE(check_report_schema(parse_or_die(doc.json()), error));
  EXPECT_NE(error.find("schema_version 4, expected 5"), std::string::npos)
      << error;
}

TEST(CheckReportSchema, RejectsAMissingVersion) {
  JsonValue report = parse_or_die(ReportDoc{}.json());
  ASSERT_EQ(report.object[0].first, "schema_version");
  report.object.erase(report.object.begin());
  std::string error;
  EXPECT_FALSE(check_report_schema(report, error));
  EXPECT_NE(error.find("no schema_version, expected 5"), std::string::npos)
      << error;
}

TEST(CheckReportSchema, RejectsAVersionThatIsNotANumber) {
  ReportDoc doc;
  doc.version = "\"5\"";
  std::string error;
  EXPECT_FALSE(check_report_schema(parse_or_die(doc.json()), error));
  EXPECT_NE(error.find("schema_version is not a number, expected 5"),
            std::string::npos)
      << error;
}

TEST(CheckReportSchema, RejectsAMissingSection) {
  JsonValue report = parse_or_die(ReportDoc{}.json());
  ASSERT_EQ(report.object.back().first, "memory");
  report.object.pop_back();
  std::string error;
  EXPECT_FALSE(check_report_schema(report, error));
  EXPECT_NE(error.find("\"memory\""), std::string::npos) << error;
}

}  // namespace
}  // namespace fbt::obs
