// Post-processing of run reports for humans and for CI: regression diffing
// of two BENCH_*.json documents against one table of gates (the CI gate;
// tools/fbt_report exposes each gate as a flag), and rendering a report +
// its event journal into a self-contained HTML dashboard. Pure functions
// over parsed JSON so tests can drive them without touching the filesystem.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace fbt::obs {

/// How a gate judges its metric, baseline -> current.
enum class GateKind {
  kAbsoluteDrop,     ///< fails when baseline - current exceeds the bound
  kPercentIncrease,  ///< fails when current exceeds baseline by more than
                     ///< the bound, in percent; a baseline <= 0 never fails
  kMinimum,          ///< fails when current is below the bound
};

/// One regression gate of diff_run_reports. A negative bound disables it.
struct DiffGate {
  const char* flag;     ///< fbt_report diff option, without the "--"
  const char* section;  ///< report section holding the metric
  /// Member of `section`; in the "phases" array, summed over the top-level
  /// phases (children are already included in their parent's total).
  const char* metric;
  GateKind kind;
  double default_bound;
  /// Summary and violation lines; {before}, {after}, {change} (the drop or
  /// the percent increase) and {bound} expand to numbers.
  const char* summary;
  const char* violation;
  bool summarized_when_off;  ///< print the summary line even when disabled
};

/// Every gate, in the order diff_run_reports checks and summarizes them.
/// Coverage and test count are on by default. The rest are opt-in: walltime,
/// peak RSS, the speedups and the overhead depend on the machine, bytes per
/// gate is gated only against bench_scale's baseline, and SeqSim gate
/// evaluations only against bench_flow_smoke's.
std::span<const DiffGate> diff_gates();

/// Gate bounds keyed by DiffGate::flag; a gate without an entry uses its
/// default bound.
using DiffBounds = std::map<std::string, double>;

struct DiffResult {
  bool regression = false;
  /// One line per violated threshold, empty when regression == false.
  std::vector<std::string> violations;
  /// Human-readable delta summary (always filled): the gated quantities
  /// first, then every counter/gauge whose value changed.
  std::string summary_text;
};

/// Accepts a parsed run report of the schema this build writes
/// (kRunReportSchemaVersion) with every section present; otherwise returns
/// false and names the problem in `error` (for a wrong version, both
/// versions). diff_run_reports and render_html_dashboard read only reports
/// that passed this check.
bool check_report_schema(const JsonValue& report, std::string& error);

/// Compares two checked run reports through diff_gates(). Never throws; an
/// absent metric reads as 0 (a baseline without coverage gauges simply
/// cannot regress).
DiffResult diff_run_reports(const JsonValue& baseline, const JsonValue& current,
                            const DiffBounds& bounds = {});

/// Renders a checked run report (plus the raw NDJSON journal text, may be
/// empty) into a single self-contained HTML page: config/gauge/counter
/// tables, the convergence curve as an inline SVG, the segment-yield table,
/// phase timings, and a capped tail of the journal.
std::string render_html_dashboard(const JsonValue& report,
                                  const std::string& journal_ndjson);

}  // namespace fbt::obs
