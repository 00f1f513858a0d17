#include "obs/run_report.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fbt::obs {
namespace {

// Minimal JSON well-formedness checker (objects, arrays, strings, numbers,
// literals). Records top-level object keys in order so tests can pin the
// schema. Returns false on any syntax error.
class MiniJsonParser {
 public:
  explicit MiniJsonParser(std::string text) : s_(std::move(text)) {}

  bool parse(std::vector<std::string>* top_keys) {
    top_keys_ = top_keys;
    skip_ws();
    const bool ok = value(0);
    skip_ws();
    return ok && pos_ == s_.size();
  }

 private:
  bool value(int depth) {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object(depth);
    if (c == '[') return array(depth);
    if (c == '"') return string_lit(nullptr);
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }

  bool object(int depth) {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      std::string key;
      if (!string_lit(&key)) return false;
      if (depth == 0 && top_keys_ != nullptr) top_keys_->push_back(key);
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value(depth + 1)) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array(int depth) {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value(depth + 1)) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string_lit(std::string* out) {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      if (out != nullptr) out->push_back(s_[pos_]);
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const std::string& word) {
    if (s_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string s_;
  std::size_t pos_ = 0;
  std::vector<std::string>* top_keys_ = nullptr;
};

RunReportData golden_data() {
  RunReportData data;
  data.tool = "golden_tool";
  data.git_sha = "abc1234";
  data.timestamp_utc = "2026-01-01T00:00:00Z";
  data.config = {{"target", "spi"}, {"driver", "wb_dma"}};
  PhaseSummary grade{"grade", 3, 6.0, 6.0, -4096, {}};
  PhaseSummary construct{"construct", 1, 10.0, 4.0, 1048576, {grade}};
  data.phases = {construct};
  data.metrics.counters = {{"bist.lfsr_cycles", 4096},
                           {"sim.seqsim_gates_evaluated", 123456}};
  data.metrics.gauges = {{"flow.fault_coverage_percent", 91.25}};
  data.metrics.histograms = {
      {"fault.grade_duration_ms", {1.0, 10.0}, {2, 1, 0}, 3, 5.5}};
  data.analytics.convergence = {{64, 300}, {128, 321}};
  data.analytics.segment_yield = {{0, 0, 123, 100, 42, 12.5}};
  data.memory.peak_rss_bytes = 50331648;
  data.memory.current_rss_bytes = 33554432;
  data.memory.footprints = {{"fault_list", 500000}, {"netlist", 2000000}};
  data.memory.bytes_per_gate = 123.456;
  data.memory.bytes_per_fault = 41.5;
  data.jobs.workers = 4;
  data.jobs.submitted = 100;
  data.jobs.executed = 100;
  data.jobs.busy_ms = 120.0;
  data.jobs.idle_ms = 280.0;
  data.jobs.utilization = 0.3;
  return data;
}

// The schema contract: this exact rendering is what downstream diff tooling
// consumes. Any change here is a schema change and must bump schema_version.
// v2 added the "analytics" section and the histogram mean/p50/p90 summary
// values (p50 of the golden histogram: rank 1.5 falls 3/4 into the [0, 1]
// bucket; p90: rank 2.7 falls 7/10 into the [1, 10] bucket).
// v3 added the per-phase rss_delta_bytes field and the trailing "memory"
// section (resource telemetry).
// v4 added the "jobs" scheduler-utilization section and the histogram
// p99/p99_clamped summary values (p99 of the golden histogram: rank 2.97
// falls 97/100 into the [1, 10] bucket -> 9.73, not clamped).
// v5 dropped the per-phase alloc_bytes/alloc_count fields and the memory
// section's allocated_bytes/allocation_count. The "jobs" section's "steals"
// key went later, with the pool's work stealing; no reader keyed on it
// (fbt_report checks the version and the sections), so v5 stayed.
constexpr const char* kGoldenReport = R"({
  "schema_version": 5,
  "tool": "golden_tool",
  "git_sha": "abc1234",
  "timestamp_utc": "2026-01-01T00:00:00Z",
  "config": {
    "driver": "wb_dma",
    "target": "spi"
  },
  "phases": [
    {"name": "construct", "count": 1, "total_ms": 10.000, "self_ms": 4.000, "rss_delta_bytes": 1048576, "children": [
      {"name": "grade", "count": 3, "total_ms": 6.000, "self_ms": 6.000, "rss_delta_bytes": -4096, "children": []}
    ]}
  ],
  "counters": {
    "bist.lfsr_cycles": 4096,
    "sim.seqsim_gates_evaluated": 123456
  },
  "gauges": {
    "flow.fault_coverage_percent": 91.25
  },
  "histograms": {
    "fault.grade_duration_ms": {"count": 3, "sum": 5.5, "mean": 1.83333, "p50": 0.75, "p90": 7.3, "p99": 9.73, "p99_clamped": false, "buckets": [{"le": 1, "count": 2}, {"le": 10, "count": 1}, {"le": "inf", "count": 0}]}
  },
  "analytics": {
    "convergence": [{"tests": 64, "detected": 300}, {"tests": 128, "detected": 321}],
    "segment_yield": [
      {"sequence": 0, "segment": 0, "seed": 123, "tests": 100, "newly_detected": 42, "peak_swa": 12.5}
    ]
  },
  "jobs": {"workers": 4, "submitted": 100, "executed": 100, "busy_ms": 120.000, "idle_ms": 280.000, "utilization": 0.3},
  "memory": {
    "peak_rss_bytes": 50331648,
    "current_rss_bytes": 33554432,
    "footprints": {
      "fault_list": 500000,
      "netlist": 2000000
    },
    "bytes_per_gate": 123.456,
    "bytes_per_fault": 41.5
  }
}
)";

TEST(RunReport, MatchesGoldenRendering) {
  EXPECT_EQ(render_run_report(golden_data()), kGoldenReport);
}

TEST(RunReport, GoldenIsWellFormedJsonWithStableKeyOrder) {
  std::vector<std::string> keys;
  MiniJsonParser parser(render_run_report(golden_data()));
  ASSERT_TRUE(parser.parse(&keys));
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "schema_version", "tool", "git_sha", "timestamp_utc",
                      "config", "phases", "counters", "gauges", "histograms",
                      "analytics", "jobs", "memory"}));
}

TEST(RunReport, EmptyReportIsStillValidJson) {
  RunReportData data;
  data.tool = "empty";
  std::vector<std::string> keys;
  MiniJsonParser parser(render_run_report(data));
  ASSERT_TRUE(parser.parse(&keys));
  EXPECT_EQ(keys.size(), 12u);
}

TEST(RunReport, EmptyHistogramRendersZeroSummariesNotNan) {
  RunReportData data;
  data.tool = "empty_hist";
  data.metrics.histograms = {{"flow.idle", {1.0, 10.0}, {0, 0, 0}, 0, 0.0}};
  const std::string body = render_run_report(data);
  EXPECT_EQ(body.find("nan"), std::string::npos);
  EXPECT_NE(body.find("\"mean\": 0, \"p50\": 0, \"p90\": 0, \"p99\": 0, "
                      "\"p99_clamped\": false"),
            std::string::npos);
  MiniJsonParser parser(body);
  ASSERT_TRUE(parser.parse(nullptr));
}

TEST(RunReport, EscapesSpecialCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  RunReportData data;
  data.tool = "quote\"tool";
  data.config = {{"key\n", "value\t"}};
  MiniJsonParser parser(render_run_report(data));
  ASSERT_TRUE(parser.parse(nullptr));
}

TEST(RunReport, CollectedReportIsValidAndCarriesTouchedMetrics) {
  registry().counter("test.collected_counter").add(3);
  const RunReportData data =
      collect_run_report("obs_test", {{"case", "collected"}});
  EXPECT_FALSE(data.git_sha.empty());
  EXPECT_EQ(data.timestamp_utc.size(), 20u);  // 2026-01-01T00:00:00Z
  const std::string body = render_run_report(data);
  MiniJsonParser parser(body);
  ASSERT_TRUE(parser.parse(nullptr));
  EXPECT_NE(body.find("\"test.collected_counter\""), std::string::npos);
  // Every collected report carries the memory section; on Linux the RSS
  // sampler reads /proc and the values are nonzero.
  EXPECT_NE(body.find("\"memory\""), std::string::npos);
  EXPECT_NE(body.find("\"peak_rss_bytes\""), std::string::npos);
#if defined(__linux__)
  EXPECT_GT(data.memory.peak_rss_bytes, 0u);
  EXPECT_GT(data.memory.current_rss_bytes, 0u);
#endif
}

TEST(RunReport, RoundTripsThroughDisk) {
  const std::string path =
      testing::TempDir() + "/fbt_obs_run_report_test.json";
  const RunReportData data = golden_data();
  ASSERT_TRUE(write_run_report(path, data));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string read_back;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    read_back.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(read_back, render_run_report(data));
}

}  // namespace
}  // namespace fbt::obs
