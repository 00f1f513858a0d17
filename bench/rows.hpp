// Row runner shared by the paper-table benches. Rows are independent
// experiments seeded from their own names, so they run concurrently on the
// job pool; tables are printed from the results in row order, and the row
// journals join the process journal in row order, as a serial run's would.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "atpg/tpdf_engine.hpp"
#include "flow/bist_flow.hpp"
#include "jobs/in_order.hpp"
#include "jobs/job_system.hpp"
#include "obs/run_report.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace fbt::bench {

/// Started when the bench process starts; finish_bench reports it.
inline const Timer bench_clock;

inline std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> items;
  std::stringstream in(text);
  for (std::string item; std::getline(in, item, ',');) items.push_back(item);
  return items;
}

/// The rows that `--<flag>`, an exact comma list of the names the table
/// prints (`name_of(row)`), selects, in table order; every row when the flag
/// is absent. A name no row prints goes to stderr and exits with status 2.
template <typename Rows, typename NameOf = std::identity>
auto select_rows(const Cli& cli, const std::string& flag, const Rows& rows,
                 NameOf name_of = {}) {
  const std::vector<std::string> wanted = split_commas(cli.get(flag, ""));
  std::vector<std::decay_t<decltype(*std::begin(rows))>> selected;
  for (const auto& row : rows) {
    if (wanted.empty() || std::ranges::count(wanted, name_of(row)) > 0) {
      selected.push_back(row);
    }
  }
  for (const std::string& name : wanted) {
    const auto prints = [&](const auto& row) { return name_of(row) == name; };
    if (std::ranges::none_of(rows, prints)) {
      std::fprintf(stderr, "%s: unknown --%s name '%s'\n",
                   cli.program().c_str(), flag.c_str(), name.c_str());
      std::exit(2);
    }
  }
  return selected;
}

template <typename R>
struct RowResult {
  R value;
  double seconds = 0.0;  ///< the row's wall time
};

/// Runs fn(i) for every row i < n on the pool through jobs::run_in_order,
/// which returns the results, and appends the row journals, in row order.
/// Its lanes start from the last row: the tables list circuits roughly by
/// size, so the longest rows start first and do not form the tail.
template <typename Fn>
auto run_rows(jobs::JobSystem& pool, std::size_t n, Fn fn) {
  return jobs::run_in_order(pool, n, [&fn](std::size_t i) {
    const Timer timer;
    auto value = fn(i);
    return RowResult<decltype(value)>{std::move(value), timer.seconds()};
  });
}

/// Prints "[bench_<name>] done in <time since start>" and writes
/// BENCH_<name>.json (plus JOURNAL_<name>.ndjson when events were recorded).
inline void finish_bench(const std::string& name,
                         const std::map<std::string, std::string>& config) {
  std::printf("[bench_%s] done in %s\n", name.c_str(),
              bench_clock.pretty().c_str());
  obs::write_bench_report(name, config);
}

/// One Chapter-2 row: a TPDF run and the "No. of faults" cell it prints.
struct TpdfRow {
  TpdfRunReport report;
  std::string faults;
};

/// Prints Tables 2.<first>, 2.<first + 2> and 2.<first + 4> (results,
/// detections per sub-procedure, sub-procedure run times), one row per
/// circuit.
inline void print_tpdf_tables(int first, const std::string& selection,
                              const std::vector<std::string>& circuits,
                              const std::vector<RowResult<TpdfRow>>& rows) {
  const auto title = [first](int offset, const std::string& text) {
    return "Table 2." + std::to_string(first + offset) + ": " + text;
  };
  Table results(title(0, "Results of test generation (" + selection + ")"));
  results.set_header({"Circuit", "No. of faults", "No. of Det.",
                      "No. of Undet.", "No. of Abr.", "Run time"});
  Table detected(title(2, "Number of detected faults for sub-procedures"));
  detected.set_header({"Circuit", "Prep. Proc.", "FSim Proc.", "Heur. Proc.",
                       "Bran. Proc."});
  Table times(title(4, "Run time comparison of sub-procedures"));
  times.set_header({"Circuit", "TG for Tran.", "Prep. Proc.", "FSim Proc.",
                    "Heur. Proc.", "Bran. Proc."});
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const TpdfRunReport& r = rows[i].value.report;
    results.add_row({circuits[i], rows[i].value.faults,
                     std::to_string(r.detected), std::to_string(r.undetectable),
                     std::to_string(r.aborted),
                     Timer::format_duration(rows[i].seconds)});
    detected.add_row({circuits[i], std::to_string(r.detectable_upper_bound),
                      std::to_string(r.detected_fsim),
                      std::to_string(r.detected_heuristic),
                      std::to_string(r.detected_bnb)});
    times.add_row({circuits[i], Timer::format_duration(r.seconds_tf_atpg),
                   Timer::format_duration(r.seconds_preprocessing),
                   Timer::format_duration(r.seconds_fsim),
                   Timer::format_duration(r.seconds_heuristic),
                   Timer::format_duration(r.seconds_bnb)});
  }
  results.print();
  std::printf("\n");
  detected.print();
  std::printf("\n");
  times.print();
}

/// The name Chapter-4 tables print for a registry circuit.
inline std::string display(const std::string& name) {
  if (name == "s35932e") return "s35932";
  if (name == "s38584e") return "s38584";
  return name;
}

/// --L of Tables 4.3 and 4.4, the segment length (default 768): even, as
/// FunctionalBistGenerator requires, and in [2, 65536]. Anything else exits
/// with status 2 before a row runs.
inline std::size_t segment_length_flag(const Cli& cli) {
  const std::int64_t L = cli.get_int_in("L", 768, 2, 65536);
  if (L % 2 != 0) {
    std::fprintf(stderr, "%s: --L must be even, got %lld\n",
                 cli.program().c_str(), static_cast<long long>(L));
    std::exit(2);
  }
  return static_cast<std::size_t>(L);
}

/// One Table 4.3 row's experiment, re-run by Table 4.4 as its phase 1:
/// calibration over calib_seqs x calib_len cycles, R = Q = 3 (dissertation
/// Q: 5), and an LFSR seed hashed from the row's names.
inline BistExperimentConfig table4_row_config(const std::string& target,
                                              const std::string& driver,
                                              std::size_t L,
                                              std::size_t calib_seqs = 6,
                                              std::size_t calib_len = 1500) {
  BistExperimentConfig cfg;
  cfg.target_name = target;
  cfg.driver_name = driver;
  cfg.calibration.num_sequences = calib_seqs;
  cfg.calibration.sequence_length = calib_len;
  cfg.generation.segment_length = L;
  cfg.generation.max_segment_failures = 3;
  cfg.generation.max_sequence_failures = 3;
  cfg.generation.rng_seed =
      0x51de0u ^ std::hash<std::string>{}(target + driver);
  return cfg;
}

}  // namespace fbt::bench
