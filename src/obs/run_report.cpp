#include "obs/run_report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>

#include "obs/event_journal.hpp"
#include "obs/instrument.hpp"

#ifndef FBT_GIT_SHA
#define FBT_GIT_SHA "unknown"
#endif

namespace fbt::obs {

namespace {

std::string fmt(const char* format, ...) {
  char buf[160];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

/// Compact float rendering: up to 6 significant digits, no trailing zeros
/// ("12.345", "0.1", "4096").
std::string json_number(double v) { return fmt("%.6g", v); }

std::string ms_number(double ms) { return fmt("%.3f", ms); }

void render_phase(const PhaseSummary& p, int indent, std::string& out) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  out += pad + "{\"name\": \"" + json_escape(p.name) + "\", \"count\": " +
         fmt("%" PRIu64, p.count) + ", \"total_ms\": " + ms_number(p.total_ms) +
         ", \"self_ms\": " + ms_number(p.self_ms) +
         ", \"rss_delta_bytes\": " + fmt("%" PRId64, p.rss_delta_bytes) +
         ", \"children\": [";
  for (std::size_t i = 0; i < p.children.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    render_phase(p.children[i], indent + 2, out);
  }
  if (!p.children.empty()) out += "\n" + pad;
  out += "]}";
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += fmt("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

RunReportData collect_run_report(
    const std::string& tool,
    const std::map<std::string, std::string>& config) {
  RunReportData data;
  data.tool = tool;
  data.git_sha = FBT_GIT_SHA;
  char stamp[32];
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  data.timestamp_utc = stamp;
  data.config = config;
  data.phases = PhaseTrace::instance().summarize();
  data.metrics = registry().snapshot();
  data.analytics = derive_analytics(journal().events());
  // "jobs" utilization from the scheduler metrics (all zero when no
  // JobSystem ran); elapsed is wall time since the trace epoch, which a
  // JobSystem constructor establishes before any task runs.
  for (const CounterSample& c : data.metrics.counters) {
    if (c.name == "jobs.submitted") data.jobs.submitted = c.value;
    if (c.name == "jobs.executed") data.jobs.executed = c.value;
  }
  for (const HistogramSample& h : data.metrics.histograms) {
    if (h.name == "jobs.run_ms") data.jobs.busy_ms = h.sum;
  }
  for (const GaugeSample& g : data.metrics.gauges) {
    if (g.name == "jobs.workers" && g.value > 0.0) {
      data.jobs.workers = static_cast<std::uint64_t>(g.value);
    }
  }
  if (data.jobs.workers > 0) {
    const double elapsed_ms =
        static_cast<double>(detail::trace_now_us()) / 1000.0;
    const double capacity_ms =
        elapsed_ms * static_cast<double>(data.jobs.workers);
    if (capacity_ms > 0.0) {
      data.jobs.idle_ms = std::max(0.0, capacity_ms - data.jobs.busy_ms);
      data.jobs.utilization = std::min(1.0, data.jobs.busy_ms / capacity_ms);
    }
  }
  FBT_OBS_FOOTPRINT("obs.journal", journal().footprint_bytes());
  FBT_OBS_FOOTPRINT("obs.phase_trace", PhaseTrace::instance().footprint_bytes());
  data.memory = collect_memory_report();
  // Derived structure analytics: footprint bytes per gate / per collapsed
  // fault, when the flow published the denominators.
  const std::uint64_t footprint_total = footprints().total_bytes();
  for (const GaugeSample& g : data.metrics.gauges) {
    if (g.name == "flow.num_gates" && g.value > 0.0) {
      data.memory.bytes_per_gate =
          static_cast<double>(footprint_total) / g.value;
    }
    if (g.name == "flow.num_faults" && g.value > 0.0) {
      data.memory.bytes_per_fault =
          static_cast<double>(footprint_total) / g.value;
    }
  }
  return data;
}

std::string render_run_report(const RunReportData& data) {
  std::string out = "{\n";
  out += fmt("  \"schema_version\": %d,\n", kRunReportSchemaVersion);
  out += "  \"tool\": \"" + json_escape(data.tool) + "\",\n";
  out += "  \"git_sha\": \"" + json_escape(data.git_sha) + "\",\n";
  out += "  \"timestamp_utc\": \"" + json_escape(data.timestamp_utc) + "\",\n";

  out += "  \"config\": {";
  bool first = true;
  for (const auto& [key, value] : data.config) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(key) + "\": \"" + json_escape(value) + "\"";
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"phases\": [";
  for (std::size_t i = 0; i < data.phases.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    render_phase(data.phases[i], 4, out);
  }
  out += data.phases.empty() ? "],\n" : "\n  ],\n";

  out += "  \"counters\": {";
  first = true;
  for (const CounterSample& c : data.metrics.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(c.name) + "\": " + fmt("%" PRIu64, c.value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const GaugeSample& g : data.metrics.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(g.name) + "\": " + json_number(g.value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const HistogramSample& h : data.metrics.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    bool p99_clamped = false;
    const double p99 = histogram_quantile(h, 0.99, &p99_clamped);
    out += "    \"" + json_escape(h.name) + "\": {\"count\": " +
           fmt("%" PRIu64, h.count) + ", \"sum\": " + json_number(h.sum) +
           ", \"mean\": " + json_number(histogram_mean(h)) +
           ", \"p50\": " + json_number(histogram_quantile(h, 0.5)) +
           ", \"p90\": " + json_number(histogram_quantile(h, 0.9)) +
           ", \"p99\": " + json_number(p99) +
           ", \"p99_clamped\": " + (p99_clamped ? "true" : "false") +
           ", \"buckets\": [";
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{\"le\": ";
      out += i < h.bounds.size() ? json_number(h.bounds[i]) : "\"inf\"";
      out += fmt(", \"count\": %" PRIu64 "}", h.bucket_counts[i]);
    }
    out += "]}";
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"analytics\": {\n";
  out += "    \"convergence\": [";
  for (std::size_t i = 0; i < data.analytics.convergence.size(); ++i) {
    const ConvergencePoint& p = data.analytics.convergence[i];
    if (i > 0) out += ", ";
    out += fmt("{\"tests\": %" PRIu64 ", \"detected\": %" PRIu64 "}", p.tests,
               p.detected);
  }
  out += "],\n";
  out += "    \"segment_yield\": [";
  for (std::size_t i = 0; i < data.analytics.segment_yield.size(); ++i) {
    const SegmentYieldRow& r = data.analytics.segment_yield[i];
    out += i == 0 ? "\n" : ",\n";
    out += fmt("      {\"sequence\": %" PRIu64 ", \"segment\": %" PRIu64
               ", \"seed\": %" PRIu64 ", \"tests\": %" PRIu64
               ", \"newly_detected\": %" PRIu64 ", \"peak_swa\": ",
               r.sequence, r.segment, r.seed, r.tests, r.newly_detected);
    out += json_number(r.peak_swa) + "}";
  }
  out += data.analytics.segment_yield.empty() ? "]\n" : "\n    ]\n";
  out += "  },\n";

  const JobsSummary& jobs = data.jobs;
  out += fmt("  \"jobs\": {\"workers\": %" PRIu64 ", \"submitted\": %" PRIu64
             ", \"executed\": %" PRIu64,
             jobs.workers, jobs.submitted, jobs.executed);
  out += ", \"busy_ms\": " + ms_number(jobs.busy_ms) +
         ", \"idle_ms\": " + ms_number(jobs.idle_ms) +
         ", \"utilization\": " + json_number(jobs.utilization) + "},\n";

  const MemoryReport& mem = data.memory;
  out += "  \"memory\": {\n";
  out += fmt("    \"peak_rss_bytes\": %" PRIu64 ",\n", mem.peak_rss_bytes);
  out += fmt("    \"current_rss_bytes\": %" PRIu64 ",\n",
             mem.current_rss_bytes);
  out += "    \"footprints\": {";
  first = true;
  for (const FootprintSample& f : mem.footprints) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "      \"" + json_escape(f.name) + "\": " +
           fmt("%" PRIu64, f.bytes);
  }
  out += first ? "},\n" : "\n    },\n";
  out += "    \"bytes_per_gate\": " + json_number(mem.bytes_per_gate) + ",\n";
  out += "    \"bytes_per_fault\": " + json_number(mem.bytes_per_fault) + "\n";
  out += "  }\n";

  out += "}\n";
  return out;
}

namespace {

/// Writes `body` to `path`; false, with a note on stderr, on failure.
bool write_text(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[obs] cannot open %s for writing\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "[obs] short write to %s\n", path.c_str());
  return ok;
}

/// The fixed collection directory every bench also copies its artifacts to,
/// so CI can upload one directory instead of hunting per-bench working dirs.
/// Compile-time default is <source>/bench/out (see src/obs/CMakeLists.txt);
/// the FBT_BENCH_OUT_DIR environment variable overrides it, and setting it
/// to the empty string disables the copy entirely.
std::string bench_out_dir() {
  if (const char* env = std::getenv("FBT_BENCH_OUT_DIR"); env != nullptr) {
    return env;
  }
#ifdef FBT_BENCH_OUT_DIR
  return FBT_BENCH_OUT_DIR;
#else
  return {};
#endif
}

}  // namespace

bool write_run_report(const std::string& path, const RunReportData& data) {
  return write_text(path, render_run_report(data));
}

bool write_bench_report(const std::string& name,
                        const std::map<std::string, std::string>& config) {
  const char* dir_env = std::getenv("FBT_BENCH_DIR");
  const std::string dir =
      dir_env != nullptr && dir_env[0] != '\0' ? dir_env : ".";
  const std::string out_dir = bench_out_dir();
  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
  }
  // Writes dir/file, then a best-effort copy into the collection directory
  // (bench artifacts must never fail the bench itself, so it only warns).
  const auto emit = [&](const std::string& file, const std::string& body) {
    const std::string path = dir + "/" + file;
    if (!write_text(path, body)) return false;
    std::printf("[obs] wrote %s\n", path.c_str());
    if (!out_dir.empty() && write_text(out_dir + "/" + file, body)) {
      std::printf("[obs] wrote %s/%s\n", out_dir.c_str(), file.c_str());
    }
    return true;
  };
  if (!emit("BENCH_" + name + ".json",
            render_run_report(collect_run_report("bench_" + name, config)))) {
    return false;
  }
  if (journal().size() > 0) {
    emit("JOURNAL_" + name + ".ndjson", journal().ndjson());
  }
  return true;
}

}  // namespace fbt::obs
