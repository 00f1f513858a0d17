// fbt_report: offline rendering and regression gating for run reports.
//
//   fbt_report render <report.json> [--journal <f.ndjson>] [--out <f.html>]
//       Renders the report (plus the optional event journal) into a
//       self-contained HTML dashboard. Default output: <report>.html.
//
//   fbt_report diff <baseline.json> <current.json> [--<gate> <bound>]...
//       Compares two run reports and exits nonzero when the current report
//       regresses past a gate. The gates are the rows of
//       fbt::obs::diff_gates() (obs/report_tools.hpp); each is a flag whose
//       value is a finite number, and a negative bound disables its gate.
//       Running fbt_report with no arguments lists them with their
//       defaults: coverage and test count are gated by default, walltime,
//       memory, speedups, overhead and SeqSim gate evaluations only when
//       asked for.
//
// Both commands read only reports of the schema this build writes; any other
// schema_version is refused.
//
// Exit codes: 0 ok, 1 regression detected, 2 usage, I/O, schema or bad
// bound error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/report_tools.hpp"
#include "util/cli.hpp"

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "fbt_report: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

bool load_report(const std::string& path, fbt::obs::JsonValue& out) {
  std::string text;
  if (!read_file(path, text)) return false;
  std::string error;
  if (!fbt::obs::json_parse(text, out, error)) {
    std::fprintf(stderr, "fbt_report: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  if (!out.is_object()) {
    std::fprintf(stderr, "fbt_report: %s: not a JSON object\n", path.c_str());
    return false;
  }
  if (!fbt::obs::check_report_schema(out, error)) {
    std::fprintf(stderr, "fbt_report: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: fbt_report render <report.json> [--journal <f.ndjson>] "
               "[--out <f.html>]\n"
               "       fbt_report diff <baseline.json> <current.json> "
               "[--<gate> <bound>]...\n"
               "gates (a negative bound disables one):\n");
  for (const fbt::obs::DiffGate& gate : fbt::obs::diff_gates()) {
    const char* unit = gate.kind == fbt::obs::GateKind::kAbsoluteDrop ? "<pts>"
                       : gate.kind == fbt::obs::GateKind::kMinimum    ? "<x>"
                                                                      : "<pct>";
    char bound[32] = "off";
    if (gate.default_bound >= 0.0) {
      std::snprintf(bound, sizeof(bound), "%g", gate.default_bound);
    }
    std::fprintf(stderr, "  --%-28s %-6s default %s\n", gate.flag, unit,
                 bound);
  }
  return 2;
}

int cmd_render(const fbt::Cli& cli) {
  if (cli.positional().size() != 2) return usage();
  const std::string report_path = cli.positional()[1];
  fbt::obs::JsonValue report;
  if (!load_report(report_path, report)) return 2;

  std::string journal;
  const std::string journal_path = cli.get("journal", "");
  if (!journal_path.empty() && !read_file(journal_path, journal)) return 2;

  const std::string out_path = cli.get("out", report_path + ".html");
  const std::string html = fbt::obs::render_html_dashboard(report, journal);
  std::ofstream out(out_path, std::ios::binary);
  if (!out || !(out << html)) {
    std::fprintf(stderr, "fbt_report: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("fbt_report: wrote %s\n", out_path.c_str());
  return 0;
}

int cmd_diff(const fbt::Cli& cli) {
  if (cli.positional().size() != 3) return usage();
  fbt::obs::DiffBounds bounds;
  for (const fbt::obs::DiffGate& gate : fbt::obs::diff_gates()) {
    if (!cli.has(gate.flag)) continue;
    const std::string text = cli.get(gate.flag, "");
    char* end = nullptr;
    const double bound = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !std::isfinite(bound)) {
      std::fprintf(stderr, "fbt_report: --%s expects a finite number, got '%s'\n",
                   gate.flag, text.c_str());
      return 2;
    }
    bounds[gate.flag] = bound;
  }
  fbt::obs::JsonValue baseline;
  fbt::obs::JsonValue current;
  if (!load_report(cli.positional()[1], baseline)) return 2;
  if (!load_report(cli.positional()[2], current)) return 2;

  const fbt::obs::DiffResult result =
      fbt::obs::diff_run_reports(baseline, current, bounds);
  std::printf("%s", result.summary_text.c_str());
  if (result.regression) {
    for (const std::string& v : result.violations) {
      std::fprintf(stderr, "REGRESSION: %s\n", v.c_str());
    }
    return 1;
  }
  std::printf("no regression\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  if (cli.positional().empty()) return usage();
  const std::string& command = cli.positional()[0];
  if (command == "render") return cmd_render(cli);
  if (command == "diff") return cmd_diff(cli);
  return usage();
}
