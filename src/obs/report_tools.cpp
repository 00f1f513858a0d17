#include "obs/report_tools.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <sstream>
#include <utility>

#include "obs/run_report.hpp"

namespace fbt::obs {

namespace {

/// A metric as text: an integral value with all its digits (an exact work
/// count that moved by one must read as moved), any other to six
/// significant digits.
std::string num(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::trunc(v) && std::fabs(v) < 0x1p53) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

/// A top-level section of a report that passed check_report_schema.
const JsonValue& section(const JsonValue& report, const char* name) {
  return *report.find(name);
}

/// Number of a named member of `obj`; 0 when the member is absent (a metric
/// appears only once code has touched it, so absent means zero).
double field(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  return v == nullptr ? 0.0 : v->as_number();
}

/// String member of `obj`; `fallback` when absent or not a string.
std::string text_field(const JsonValue& obj, const std::string& key,
                       const std::string& fallback) {
  const JsonValue* v = obj.find(key);
  return v == nullptr ? fallback : v->as_string(fallback);
}

/// A gate's metric: a member of an object section, or of the top-level
/// entries of an array section, summed.
double gate_metric(const JsonValue& report, const DiffGate& gate) {
  const JsonValue& sec = section(report, gate.section);
  if (!sec.is_array()) return field(sec, gate.metric);
  double total = 0.0;
  for (const JsonValue& entry : sec.array) total += field(entry, gate.metric);
  return total;
}

/// `text` with the first {name} of each variable replaced by num() of its
/// value (a gate's lines name each variable at most once).
std::string expand(std::string text,
                   std::initializer_list<std::pair<const char*, double>> vars) {
  for (const auto& [name, value] : vars) {
    const std::string key = std::string("{") + name + "}";
    const std::size_t at = text.find(key);
    if (at != std::string::npos) text.replace(at, key.size(), num(value));
  }
  return text;
}

constexpr DiffGate kGates[] = {
    {"max-coverage-drop", "gauges", "flow.fault_coverage_percent",
     GateKind::kAbsoluteDrop, 0.5, "coverage: {before}% -> {after}%",
     "fault coverage dropped {change} points ({before}% -> {after}%), "
     "allowed {bound}",
     true},
    {"max-tests-increase", "gauges", "flow.num_tests",
     GateKind::kPercentIncrease, 20.0, "tests: {before} -> {after}",
     "test count grew {change}% ({before} -> {after}), allowed {bound}%",
     true},
    {"max-walltime-increase", "phases", "total_ms",
     GateKind::kPercentIncrease, -1.0, "walltime_ms: {before} -> {after}",
     "walltime grew {change}% ({before}ms -> {after}ms), allowed {bound}%",
     true},
    {"max-peak-rss-increase", "memory", "peak_rss_bytes",
     GateKind::kPercentIncrease, -1.0, "peak_rss_bytes: {before} -> {after}",
     "peak RSS grew {change}% ({before} -> {after} bytes), allowed {bound}%",
     true},
    {"max-bytes-per-gate-increase", "memory", "bytes_per_gate",
     GateKind::kPercentIncrease, -1.0, "bytes_per_gate: {before} -> {after}",
     "bytes per gate grew {change}% ({before} -> {after}), allowed {bound}%",
     true},
    {"min-warm-speedup", "gauges", "serve.warm_speedup", GateKind::kMinimum,
     -1.0, "warm_speedup: {before} -> {after}",
     "serve warm speedup {after}x below required {bound}x", false},
    {"min-pack-speedup", "gauges", "fault.pack_speedup_64",
     GateKind::kMinimum, -1.0, "pack_speedup_64: {before} -> {after}",
     "PPSFP pack-64 grade speedup {after}x below required {bound}x", false},
    // Diff the FBT_OBS=OFF bench_obs_overhead report (baseline) against the
    // ON report (current); both publish the min-of-N flow walltime.
    {"max-obs-overhead-pct", "gauges", "obs.flow_run_ms",
     GateKind::kPercentIncrease, -1.0, "obs_flow_run_ms: {before} -> {after}",
     "observability overhead {change}% ({before}ms off -> {after}ms on), "
     "allowed {bound}%",
     false},
    // A deterministic work count: at bound 0 a kernel change must leave the
    // number of SeqSim gate evaluations exactly as the baseline counted them.
    {"max-seqsim-gates-increase", "counters", "sim.seqsim_gates_evaluated",
     GateKind::kPercentIncrease, -1.0,
     "seqsim_gates_evaluated: {before} -> {after}",
     "SeqSim gate evaluations grew {change}% ({before} -> {after}), "
     "allowed {bound}%",
     false},
    // Chapter 2's work counts: PODEM's search (backtracks, decisions) must
    // stay exact under a speed change, and its simulation work may only fall.
    {"max-podem-backtracks-increase", "counters", "atpg.podem_backtracks",
     GateKind::kPercentIncrease, -1.0, "podem_backtracks: {before} -> {after}",
     "PODEM backtracks grew {change}% ({before} -> {after}), allowed {bound}%",
     false},
    {"max-podem-decisions-increase", "counters", "atpg.podem_decisions_made",
     GateKind::kPercentIncrease, -1.0,
     "podem_decisions_made: {before} -> {after}",
     "PODEM decisions grew {change}% ({before} -> {after}), allowed {bound}%",
     false},
    {"max-podem-gate-evals-increase", "counters", "atpg.podem_gate_evals",
     GateKind::kPercentIncrease, -1.0, "podem_gate_evals: {before} -> {after}",
     "PODEM gate evaluations grew {change}% ({before} -> {after}), "
     "allowed {bound}%",
     false},
};

void append_metric_deltas(const JsonValue& baseline, const JsonValue& current,
                          const char* section_name, std::ostringstream& out) {
  for (const auto& [name, value] : section(current, section_name).object) {
    if (!value.is_number()) continue;
    const double before = field(section(baseline, section_name), name);
    if (before == value.number) continue;
    out << "  " << section_name << "." << name << ": " << num(before) << " -> "
        << num(value.number) << "\n";
  }
}

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

/// Two-column name/value table from a JSON object of scalars.
void html_kv_table(const JsonValue& obj, std::ostringstream& out) {
  out << "<table><tr><th>name</th><th>value</th></tr>\n";
  for (const auto& [name, value] : obj.object) {
    out << "<tr><td>" << html_escape(name) << "</td><td>";
    if (value.is_number()) {
      out << num(value.number);
    } else if (value.is_string()) {
      out << html_escape(value.string);
    }
    out << "</td></tr>\n";
  }
  out << "</table>\n";
}

/// The coverage convergence curve as an inline SVG polyline; nothing when
/// fewer than two points exist.
void html_convergence_svg(const JsonValue& report, std::ostringstream& out) {
  const JsonValue* curve = section(report, "analytics").find("convergence");
  if (curve == nullptr || !curve->is_array() || curve->array.size() < 2) {
    out << "<p class=\"dim\">no convergence data</p>\n";
    return;
  }
  double max_tests = 1.0;
  double max_detected = 1.0;
  for (const JsonValue& p : curve->array) {
    max_tests = std::max(max_tests, field(p, "tests"));
    max_detected = std::max(max_detected, field(p, "detected"));
  }
  const double w = 640.0;
  const double h = 240.0;
  const double pad = 32.0;
  out << "<svg viewBox=\"0 0 " << num(w) << " " << num(h)
      << "\" class=\"curve\">\n";
  out << "<rect x=\"" << num(pad) << "\" y=\"8\" width=\"" << num(w - pad - 8)
      << "\" height=\"" << num(h - pad - 8)
      << "\" fill=\"none\" stroke=\"#ccc\"/>\n";
  out << "<polyline fill=\"none\" stroke=\"#0a6\" stroke-width=\"2\" "
         "points=\"";
  for (const JsonValue& p : curve->array) {
    const double x = pad + (field(p, "tests") / max_tests) * (w - pad - 8);
    const double y =
        (h - pad) - (field(p, "detected") / max_detected) * (h - pad - 16);
    out << num(x) << "," << num(y) << " ";
  }
  out << "\"/>\n";
  out << "<text x=\"" << num(w / 2) << "\" y=\"" << num(h - 6)
      << "\" text-anchor=\"middle\" class=\"axis\">tests applied (max "
      << num(max_tests) << ")</text>\n";
  out << "<text x=\"12\" y=\"" << num(h / 2)
      << "\" text-anchor=\"middle\" class=\"axis\" transform=\"rotate(-90 12 "
      << num(h / 2) << ")\">faults detected (max " << num(max_detected)
      << ")</text>\n";
  out << "</svg>\n";
}

void html_segment_yield(const JsonValue& report, std::ostringstream& out) {
  const JsonValue* rows = section(report, "analytics").find("segment_yield");
  if (rows == nullptr || !rows->is_array() || rows->array.empty()) {
    out << "<p class=\"dim\">no segment yield data</p>\n";
    return;
  }
  static const char* kCols[] = {"sequence", "segment",        "seed",
                                "tests",    "newly_detected", "peak_swa"};
  out << "<table><tr>";
  for (const char* c : kCols) out << "<th>" << c << "</th>";
  out << "</tr>\n";
  for (const JsonValue& row : rows->array) {
    out << "<tr>";
    for (const char* c : kCols) {
      const JsonValue* v = row.find(c);
      out << "<td>" << (v != nullptr ? num(v->as_number()) : "") << "</td>";
    }
    out << "</tr>\n";
  }
  out << "</table>\n";
}

std::string bytes_human(double bytes) {
  char buf[64];
  if (bytes >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB", bytes / (1024.0 * 1024.0));
  } else if (bytes >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  }
  return buf;
}

/// One horizontal bar row: label, value text, and a width-proportional bar.
void html_bar_row(const std::string& label, double value, double max_value,
                  std::ostringstream& out) {
  const double pct =
      max_value > 0.0 ? std::min(100.0, 100.0 * std::abs(value) / max_value)
                      : 0.0;
  out << "<tr><td>" << html_escape(label) << "</td><td>" << bytes_human(value)
      << "</td><td class=\"barcell\"><div class=\"bar\" style=\"width:"
      << num(pct) << "%\"></div></td></tr>\n";
}

/// Memory panel: RSS scalars, structure footprints as bars, and
/// per-top-level-phase RSS deltas as bars.
void html_memory_panel(const JsonValue& report, std::ostringstream& out) {
  const JsonValue& mem = section(report, "memory");
  out << "<table><tr><th>name</th><th>value</th></tr>\n";
  static const char* kScalars[] = {"peak_rss_bytes", "current_rss_bytes",
                                   "bytes_per_gate", "bytes_per_fault"};
  for (const char* name : kScalars) {
    const JsonValue* v = mem.find(name);
    if (v == nullptr || !v->is_number()) continue;
    out << "<tr><td>" << name << "</td><td>" << num(v->number);
    if (std::string(name).find("rss") != std::string::npos) {
      out << " (" << bytes_human(v->number) << ")";
    }
    out << "</td></tr>\n";
  }
  out << "</table>\n";

  const JsonValue* footprints = mem.find("footprints");
  if (footprints != nullptr && footprints->is_object() &&
      !footprints->object.empty()) {
    double max_bytes = 0.0;
    for (const auto& [name, value] : footprints->object) {
      if (value.is_number()) max_bytes = std::max(max_bytes, value.number);
    }
    out << "<h3>Structure footprints</h3>\n<table>"
           "<tr><th>structure</th><th>bytes</th><th></th></tr>\n";
    for (const auto& [name, value] : footprints->object) {
      if (value.is_number()) html_bar_row(name, value.number, max_bytes, out);
    }
    out << "</table>\n";
  }

  // Netlist arena telemetry: the finalize-time / arena-size gauge pair
  // published by Netlist::finalize(), plus the per-scale-point copies a
  // bench_scale sweep records (scale.gN.netlist_arena_bytes /
  // scale.gN.netlist_finalize_ms). Reports without the gauges (tools that
  // never finalize a netlist) skip the section.
  std::vector<std::pair<std::string, double>> arena_rows;
  for (const auto& [name, value] : section(report, "gauges").object) {
    if (!value.is_number()) continue;
    const bool arena_pair = name == "netlist.arena_bytes" ||
                            name == "netlist.finalize_duration_ms";
    const bool scale_pair =
        name.rfind("scale.", 0) == 0 &&
        (name.find(".netlist_arena_bytes") != std::string::npos ||
         name.find(".netlist_finalize_ms") != std::string::npos ||
         name.find(".parse_ms") != std::string::npos);
    if (arena_pair || scale_pair) arena_rows.emplace_back(name, value.number);
  }
  if (!arena_rows.empty()) {
    out << "<h3>Netlist arena</h3>\n<table>"
           "<tr><th>gauge</th><th>value</th></tr>\n";
    for (const auto& [name, value] : arena_rows) {
      out << "<tr><td>" << html_escape(name) << "</td><td>" << num(value);
      if (name.find("bytes") != std::string::npos) {
        out << " (" << bytes_human(value) << ")";
      }
      out << "</td></tr>\n";
    }
    out << "</table>\n";
  }

  const JsonValue& phases = section(report, "phases");
  if (!phases.array.empty()) {
    double max_delta = 0.0;
    for (const JsonValue& p : phases.array) {
      max_delta = std::max(max_delta, std::abs(field(p, "rss_delta_bytes")));
    }
    if (max_delta > 0.0) {
      out << "<h3>Per-phase RSS delta</h3>\n<table>"
             "<tr><th>phase</th><th>delta</th><th></th></tr>\n";
      for (const JsonValue& p : phases.array) {
        html_bar_row(text_field(p, "name", ""), field(p, "rss_delta_bytes"),
                     max_delta, out);
      }
      out << "</table>\n";
    }
  }
}

void html_phases(const JsonValue* phases, int depth, std::ostringstream& out) {
  if (phases == nullptr || !phases->is_array()) return;
  for (const JsonValue& p : phases->array) {
    out << "<tr><td>";
    for (int i = 0; i < depth; ++i) out << "&nbsp;&nbsp;";
    out << html_escape(text_field(p, "name", "")) << "</td><td>"
        << num(field(p, "count")) << "</td><td>" << num(field(p, "total_ms"))
        << "</td><td>" << num(field(p, "self_ms")) << "</td></tr>\n";
    html_phases(p.find("children"), depth + 1, out);
  }
}

/// One histogram-summary row (count/mean/p50/p99) from the "histograms"
/// section; skipped when absent. A clamped p99 is marked with "+" (the true
/// tail exceeded the last bucket).
void html_histogram_row(const JsonValue& histograms, const std::string& name,
                        std::ostringstream& out) {
  const JsonValue* h = histograms.find(name);
  if (h == nullptr || !h->is_object()) return;
  const JsonValue* clamped = h->find("p99_clamped");
  const bool is_clamped = clamped != nullptr &&
                          clamped->kind == JsonValue::Kind::kBool &&
                          clamped->boolean;
  out << "<tr><td>" << html_escape(name) << "</td><td>"
      << num(field(*h, "count")) << "</td><td>" << num(field(*h, "mean"))
      << "</td><td>" << num(field(*h, "p50")) << "</td><td>"
      << num(field(*h, "p99")) << (is_clamped ? "+" : "") << "</td></tr>\n";
}

/// Scheduler panel: the "jobs" utilization section plus the jobs.run_ms
/// histogram summary. A run with no scheduler activity degrades to a note.
void html_scheduler_panel(const JsonValue& report, std::ostringstream& out) {
  const JsonValue& jobs = section(report, "jobs");
  bool any_nonzero = false;
  for (const auto& [name, value] : jobs.object) {
    any_nonzero |= value.is_number() && value.number != 0.0;
  }
  if (!any_nonzero) {
    out << "<p class=\"dim\">no scheduler activity in this run</p>\n";
    return;
  }
  html_kv_table(jobs, out);
  const JsonValue& histograms = section(report, "histograms");
  std::ostringstream rows;
  html_histogram_row(histograms, "jobs.run_ms", rows);
  if (!rows.str().empty()) {
    out << "<h3>Job timing (ms)</h3>\n<table><tr><th>histogram</th>"
           "<th>count</th><th>mean</th><th>p50</th><th>p99</th></tr>\n"
        << rows.str() << "</table>\n";
  }
}

/// Request-latency panel: the serve.request_* histogram summaries -- totals
/// keyed cold vs warm plus the queue/cache/compute/render decomposition.
/// Reports with no serve traffic degrade to a note.
void html_request_latency_panel(const JsonValue& report,
                                std::ostringstream& out) {
  static const char* kNames[] = {
      "serve.request_total_cold_ms", "serve.request_total_warm_ms",
      "serve.request_queue_ms",      "serve.request_cache_ms",
      "serve.request_compute_ms",    "serve.request_render_ms"};
  const JsonValue& histograms = section(report, "histograms");
  bool any_samples = false;
  for (const char* name : kNames) {
    const JsonValue* h = histograms.find(name);
    any_samples |= h != nullptr && field(*h, "count") > 0.0;
  }
  if (!any_samples) {
    out << "<p class=\"dim\">no request latency data in this run</p>\n";
    return;
  }
  out << "<table><tr><th>histogram</th><th>count</th><th>mean</th>"
         "<th>p50</th><th>p99</th></tr>\n";
  for (const char* name : kNames) {
    html_histogram_row(histograms, name, out);
  }
  out << "</table>\n"
         "<p class=\"dim\">p99 marked + when clamped to the last bucket "
         "(true tail is larger)</p>\n";
}

/// Serving panel: every serve.* / jobs.* counter and gauge, so a daemon or
/// bench_serve report shows request volume, cache effectiveness, and pool
/// traffic at a glance. Reports with no serving activity degrade to a note.
void html_serving_panel(const JsonValue& report, std::ostringstream& out) {
  std::vector<std::pair<std::string, double>> rows;
  for (const char* section_name : {"counters", "gauges"}) {
    for (const auto& [name, value] : section(report, section_name).object) {
      if (!value.is_number()) continue;
      if (name.rfind("serve.", 0) != 0 && name.rfind("jobs.", 0) != 0) {
        continue;
      }
      rows.emplace_back(name, value.number);
    }
  }
  bool any_nonzero = false;
  for (const auto& [name, value] : rows) any_nonzero |= value != 0.0;
  if (rows.empty() || !any_nonzero) {
    out << "<p class=\"dim\">no serving activity in this run</p>\n";
    return;
  }
  out << "<table><tr><th>metric</th><th>value</th></tr>\n";
  for (const auto& [name, value] : rows) {
    out << "<tr><td>" << html_escape(name) << "</td><td>" << num(value)
        << "</td></tr>\n";
  }
  out << "</table>\n";
}

}  // namespace

bool check_report_schema(const JsonValue& report, std::string& error) {
  const std::string expected = std::to_string(kRunReportSchemaVersion);
  const JsonValue* version = report.find("schema_version");
  if (version == nullptr) {
    error = "no schema_version, expected " + expected;
    return false;
  }
  if (!version->is_number()) {
    error = "schema_version is not a number, expected " + expected;
    return false;
  }
  if (version->number != kRunReportSchemaVersion) {
    error = "schema_version " + num(version->number) + ", expected " +
            expected + " (regenerate the report with this build)";
    return false;
  }
  static const std::pair<const char*, JsonValue::Kind> kSections[] = {
      {"config", JsonValue::Kind::kObject},
      {"phases", JsonValue::Kind::kArray},
      {"counters", JsonValue::Kind::kObject},
      {"gauges", JsonValue::Kind::kObject},
      {"histograms", JsonValue::Kind::kObject},
      {"analytics", JsonValue::Kind::kObject},
      {"jobs", JsonValue::Kind::kObject},
      {"memory", JsonValue::Kind::kObject}};
  for (const auto& [name, kind] : kSections) {
    const JsonValue* sec = report.find(name);
    if (sec == nullptr || sec->kind != kind) {
      error = std::string("section \"") + name + "\" is missing or malformed";
      return false;
    }
  }
  return true;
}

std::span<const DiffGate> diff_gates() { return kGates; }

DiffResult diff_run_reports(const JsonValue& baseline, const JsonValue& current,
                            const DiffBounds& bounds) {
  DiffResult result;
  std::ostringstream summary;
  for (const DiffGate& gate : kGates) {
    const auto it = bounds.find(gate.flag);
    const double bound = it == bounds.end() ? gate.default_bound : it->second;
    const bool on = bound >= 0.0;
    const double before = gate_metric(baseline, gate);
    const double after = gate_metric(current, gate);
    if (on || gate.summarized_when_off) {
      summary << expand(gate.summary, {{"before", before}, {"after", after}})
              << "\n";
    }
    if (!on) continue;
    double change = 0.0;
    bool violated = false;
    switch (gate.kind) {
      case GateKind::kAbsoluteDrop:
        change = before - after;
        violated = change > bound;
        break;
      case GateKind::kPercentIncrease:
        change = before > 0.0 ? (after - before) / before * 100.0 : 0.0;
        violated = before > 0.0 && change > bound;
        break;
      case GateKind::kMinimum:
        violated = after < bound;
        break;
    }
    if (violated) {
      result.violations.push_back(expand(gate.violation, {{"before", before},
                                                          {"after", after},
                                                          {"change", change},
                                                          {"bound", bound}}));
    }
  }

  summary << "changed metrics:\n";
  append_metric_deltas(baseline, current, "gauges", summary);
  append_metric_deltas(baseline, current, "counters", summary);

  result.regression = !result.violations.empty();
  result.summary_text = summary.str();
  return result;
}

std::string render_html_dashboard(const JsonValue& report,
                                  const std::string& journal_ndjson) {
  std::ostringstream out;
  const std::string tool = text_field(report, "tool", "?");
  const std::string sha = text_field(report, "git_sha", "?");
  const std::string stamp = text_field(report, "timestamp_utc", "?");

  out << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
      << "<title>fbt run report: " << html_escape(tool) << "</title>\n"
      << "<style>\n"
         "body { font: 14px/1.45 system-ui, sans-serif; margin: 24px; "
         "color: #222; max-width: 960px; }\n"
         "h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px; "
         "border-bottom: 1px solid #ddd; padding-bottom: 4px; }\n"
         "h3 { font-size: 14px; margin: 14px 0 4px; }\n"
         ".barcell { min-width: 220px; }\n"
         ".bar { background: #0a6; height: 10px; border-radius: 2px; }\n"
         "table { border-collapse: collapse; margin: 8px 0; }\n"
         "th, td { border: 1px solid #ddd; padding: 3px 10px; "
         "text-align: left; font-variant-numeric: tabular-nums; }\n"
         "th { background: #f5f5f5; }\n"
         ".dim { color: #888; }\n"
         ".curve { width: 100%; max-width: 640px; }\n"
         ".axis { font-size: 11px; fill: #666; }\n"
         "pre { background: #f8f8f8; border: 1px solid #eee; padding: 8px; "
         "overflow-x: auto; font-size: 12px; }\n"
         "</style></head><body>\n";

  out << "<h1>" << html_escape(tool) << "</h1>\n";
  out << "<p class=\"dim\">git " << html_escape(sha) << " &middot; "
      << html_escape(stamp) << "</p>\n";

  out << "<h2>Configuration</h2>\n";
  html_kv_table(section(report, "config"), out);

  out << "<h2>Coverage convergence</h2>\n";
  html_convergence_svg(report, out);

  out << "<h2>Segment yield</h2>\n";
  html_segment_yield(report, out);

  out << "<h2>Serving</h2>\n";
  html_serving_panel(report, out);

  out << "<h2>Request latency</h2>\n";
  html_request_latency_panel(report, out);

  out << "<h2>Scheduler</h2>\n";
  html_scheduler_panel(report, out);

  out << "<h2>Memory</h2>\n";
  html_memory_panel(report, out);

  out << "<h2>Gauges</h2>\n";
  html_kv_table(section(report, "gauges"), out);

  out << "<h2>Counters</h2>\n";
  html_kv_table(section(report, "counters"), out);

  out << "<h2>Phases</h2>\n";
  out << "<table><tr><th>phase</th><th>count</th><th>total_ms</th>"
         "<th>self_ms</th></tr>\n";
  html_phases(&section(report, "phases"), 0, out);
  out << "</table>\n";

  out << "<h2>Event journal</h2>\n";
  if (journal_ndjson.empty()) {
    out << "<p class=\"dim\">no journal attached</p>\n";
  } else {
    // Cap the inline dump so a long run cannot produce a 100 MB page; the
    // tail carries the commit/finish events, which matter most.
    constexpr std::size_t kMaxLines = 500;
    std::vector<std::string> lines;
    std::string line;
    std::istringstream in(journal_ndjson);
    std::size_t total = 0;
    while (std::getline(in, line)) {
      ++total;
      lines.push_back(line);
      if (lines.size() > kMaxLines) lines.erase(lines.begin());
    }
    if (total > kMaxLines) {
      out << "<p class=\"dim\">showing last " << kMaxLines << " of " << total
          << " events</p>\n";
    }
    out << "<pre>";
    for (const std::string& l : lines) out << html_escape(l) << "\n";
    out << "</pre>\n";
  }

  out << "</body></html>\n";
  return out.str();
}

}  // namespace fbt::obs
