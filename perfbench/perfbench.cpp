// Paper-experiment benchmark for fbtgen. Runs one workload taken from the
// dissertation's tables, checks every row against goldens and invariants,
// and prints the metrics as one JSON object on the last line of stdout.
//
//   t43_desperf  Table 4.3 rows des_perf/buffers and des_perf/wb_conmax
//   t44_hold     Table 4.4 rows des_area/s35932e, des_area/wb_conmax and
//                systemcaes/s35932e: the constrained base run, then state
//                holding (tree height 3, h = 2)
//   ch2_tpdf     Table 2.1 on s298, s386 and s344 (400 paths, both
//                transitions) with backtrack-only PODEM budgets
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --goldens FILE [--trace-out FILE] [--print-fingerprints]
//
// The seed is XORed into the RNG seeds of generation and calibration (t43),
// of the state-holding phase (t44) and of the TPDF engine (ch2); seed 0
// reproduces the bench_table* rows exactly.
//
// --trace 0 runs whole passes through the library's experiment entry points
// (run_bist_experiment, run_hold_experiment, TpdfEngine::run) until S
// seconds have passed, one client running the rows back to back, and prints
// the end-to-end metrics as medians over passes; setup_s is the fastest of
// the set-up repetitions run before the first pass and after every row.
// --trace 1 runs every row twice: once through the entry points and once
// calling each layer's public functions from this file inside spans recorded
// here, in an order that alternates from row to row. It checks that both
// give the same fingerprints, writes the spans to --trace-out, and prints
// the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "atpg/tpdf_engine.hpp"
#include "bist/area_model.hpp"
#include "bist/hardware_plan.hpp"
#include "bist/tpg.hpp"
#include "circuits/registry.hpp"
#include "circuits/synth.hpp"
#include "fault/compaction.hpp"
#include "fault/parallel_fault_sim.hpp"
#include "flow/bist_flow.hpp"
#include "jobs/job_system.hpp"
#include "netlist/flat_fanins.hpp"
#include "obs/event_journal.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "paths/path.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kMaxPaths = 400;
constexpr std::uint64_t kHoldSeed = 0x401d;
constexpr std::uint64_t kTpdfSeed = 2024;

// ---------------------------------------------------------------------------
// Workloads

struct BistRow {
  const char* target;
  const char* driver;
};

const std::vector<BistRow> kT43Rows = {{"des_perf", "buffers"},
                                       {"des_perf", "wb_conmax"}};
const std::vector<BistRow> kT44Rows = {{"des_area", "s35932e"},
                                       {"des_area", "wb_conmax"},
                                       {"systemcaes", "s35932e"}};
const std::vector<std::string> kCh2Circuits = {"s298", "s386", "s344"};

enum class Kind { kTable43, kTable44, kTpdf };

struct Workload {
  std::string name;
  Kind kind;
  std::vector<BistRow> bist_rows;     // t43 / t44
  std::vector<std::string> circuits;  // ch2
  std::size_t num_rows() const {
    return kind == Kind::kTpdf ? circuits.size() : bist_rows.size();
  }
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"t43_desperf", Kind::kTable43, kT43Rows, {}},
      {"t44_hold", Kind::kTable44, kT44Rows, {}},
      {"ch2_tpdf", Kind::kTpdf, {}, kCh2Circuits},
  };
  return all;
}

bool unconstrained(const BistRow& row) {
  return std::string_view(row.driver) == "buffers";
}

std::string row_label(const BistRow& row) {
  return std::string(row.target) + "/" + row.driver;
}

// Same configuration as bench_table4_3 / bench_table4_4, with `seed` XORed
// into the generation and calibration RNG seeds.
fbt::BistExperimentConfig bist_config(const BistRow& row, std::uint64_t seed) {
  fbt::BistExperimentConfig cfg;
  cfg.target_name = row.target;
  cfg.driver_name = row.driver;
  cfg.calibration.num_sequences = 6;
  cfg.calibration.sequence_length = 1500;
  cfg.calibration.rng_seed ^= seed;
  cfg.generation.segment_length = 768;
  cfg.generation.max_segment_failures = 3;   // R
  cfg.generation.max_sequence_failures = 3;  // Q
  cfg.generation.rng_seed =
      (0x51de0u ^ std::hash<std::string>{}(std::string(row.target) +
                                            row.driver)) ^
      seed;
  return cfg;
}

/// t44's base run is its Table 4.3 row at the paper's seeds, the fixed state
/// the hold phase starts from; the workload seed varies only the state-holding
/// phase (set selection and its construction runs). Seeding the base run as
/// well swings its no-drop reduction matrix, and with it peak RSS, by 2x from
/// seed to seed, which would drown the hold phase this workload is for.
std::uint64_t base_run_seed(bool with_hold, std::uint64_t seed) {
  return with_hold ? 0 : seed;
}

fbt::HoldSelectionConfig hold_config(const fbt::FunctionalBistConfig& base) {
  fbt::HoldSelectionConfig hold;
  hold.tree_height = 3;
  hold.hold_period_log2 = 2;
  hold.eval = base;
  hold.eval.max_segment_failures = 1;
  hold.eval.max_sequence_failures = 1;
  hold.commit = base;
  return hold;
}

// Table 2.1's engine settings with the wall-clock limits lifted: with only
// backtrack limits, the abort set depends on the code and not on how fast
// the host happens to be.
fbt::TpdfEngineConfig tpdf_config(std::uint64_t seed) {
  fbt::TpdfEngineConfig cfg;
  cfg.rng_seed = kTpdfSeed ^ seed;
  constexpr double kNoTimeLimit = 1e9;
  cfg.tf_atpg.time_limit_seconds = kNoTimeLimit;
  cfg.heuristic.time_limit_seconds = kNoTimeLimit;
  cfg.branch_and_bound.time_limit_seconds = kNoTimeLimit;
  return cfg;
}

std::vector<fbt::PathDelayFault> both_transitions(
    const fbt::PathEnumeration& paths) {
  std::vector<fbt::PathDelayFault> faults;
  faults.reserve(2 * paths.paths.size());
  for (const fbt::Path& p : paths.paths) {
    faults.push_back({p, true});
    faults.push_back({p, false});
  }
  return faults;
}

// ---------------------------------------------------------------------------
// Fingerprints and output checks

class Fnv64 {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string num(double v) { return fbt::Table::num(v, 2); }

/// One row's result: its fingerprint (table row plus detect-count or
/// per-fault-status hash), the quantities the end-to-end metrics sum, and
/// the first failed check (empty when the row is correct).
struct RowReport {
  std::string fingerprint;
  std::size_t faults = 0;
  std::size_t detected = 0;
  std::size_t tests = 0;
  double seconds = 0.0;
  double peak_rss_mib = 0.0;
  std::string failure;
};

/// Peak resident set size since the last reset_peak_rss(), in MiB, from
/// /proc/self/status; the process lifetime peak when that is unavailable.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Restarts the VmHWM peak at the current RSS (Linux clear_refs "5"), so a
/// row's peak excludes what the benchmark's own checks allocated before it.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

std::string detect_hash(const std::vector<std::uint32_t>& detect_count) {
  Fnv64 h;
  for (const std::uint32_t c : detect_count) h.add(c);
  return h.hex();
}

/// Faults detected by `sets` graded from scratch (fault dropping, 4 shards).
std::size_t regraded_detections(const fbt::Netlist& netlist,
                                const fbt::TransitionFaultList& faults,
                                const std::vector<const fbt::TestSet*>& sets,
                                fbt::jobs::JobSystem& pool) {
  fbt::ParallelBroadsideFaultSim fsim(netlist, kWorkers, &pool, 64);
  std::vector<std::uint32_t> counts(faults.size(), 0);
  for (const fbt::TestSet* set : sets) fsim.grade(*set, faults, counts, 1);
  return static_cast<std::size_t>(
      std::count_if(counts.begin(), counts.end(),
                    [](std::uint32_t c) { return c >= 1; }));
}

/// Fingerprint and invariants of a Table 4.3 row, or of a Table 4.4 row when
/// `hold` is set (then `base.detect_count` already includes the hold phase).
/// Without `regrade` the coverage check is left to the untraced twin of the
/// row, whose fingerprint this one must equal.
RowReport finish_bist_row(const BistRow& row,
                          const fbt::BistExperimentResult& base,
                          const fbt::HoldExperimentResult* hold,
                          fbt::jobs::JobSystem& pool, bool regrade) {
  RowReport out;
  std::ostringstream fp;
  fp << row_label(row) << " Lsc=" << base.scan.longest_length()
     << " SWAfunc=" << num(base.swa_func)
     << " Nmulti=" << base.run.sequences.size()
     << " Nsegmax=" << base.run.nseg_max << " Lmax=" << base.run.lmax
     << " Nseeds=" << base.run.num_seeds << " Ntests=" << base.run.num_tests
     << " SWA=" << num(base.run.peak_swa)
     << " FC=" << num(base.fault_coverage_percent)
     << " HW=" << static_cast<long long>(base.hw_area)
     << " Over=" << num(base.overhead_percent);
  out.faults = base.faults.size();
  out.detected = base.detected;
  out.tests = base.run.num_tests;
  std::vector<const fbt::TestSet*> applied = {&base.run.tests};
  if (hold != nullptr) {
    const fbt::HoldSelectionResult& h = hold->hold;
    fp << " | Nh=" << h.selected.size() << " Nbits=" << h.total_held_flops
       << " Nmulti=" << h.num_sequences << " Nsegmax=" << h.nseg_max
       << " Lmax=" << h.lmax << " Nseeds=" << h.num_seeds
       << " Ntests=" << h.num_tests << " SWA=" << num(h.peak_swa)
       << " FCimp=" << num(hold->coverage_improvement_percent)
       << " FC=" << num(hold->final_coverage_percent)
       << " HW=" << static_cast<long long>(hold->hw_area)
       << " Over=" << num(hold->overhead_percent);
    out.detected = hold->detected_total;
    out.tests += h.num_tests;
    for (const fbt::HoldSetRun& set : h.selected) {
      applied.push_back(&set.result.tests);
    }
  }
  fp << " dc=" << detect_hash(base.detect_count);
  out.fingerprint = fp.str();

  if (!unconstrained(row)) {
    const double peak =
        hold != nullptr ? std::max(base.run.peak_swa, hold->hold.peak_swa)
                        : base.run.peak_swa;
    if (peak > base.swa_func) {
      out.failure = "peak SWA " + num(peak) + " exceeds SWA_func " +
                    num(base.swa_func);
      return out;
    }
  }
  if (!regrade) return out;
  // Coverage must survive the sequence reduction: the kept tests (plus the
  // hold tests) re-detect exactly what construction credited.
  const std::size_t regraded =
      regraded_detections(base.target, base.faults, applied, pool);
  if (regraded != out.detected) {
    out.failure = "kept tests detect " + std::to_string(regraded) +
                  " faults, construction credited " +
                  std::to_string(out.detected);
  }
  return out;
}

RowReport finish_tpdf_row(const std::string& circuit,
                          const fbt::PathEnumeration& paths,
                          const fbt::TpdfRunReport& report) {
  RowReport out;
  Fnv64 h;
  for (const fbt::TpdfFaultReport& f : report.per_fault) {
    h.add(static_cast<std::uint64_t>(f.status) << 8 |
          static_cast<std::uint64_t>(f.phase));
  }
  std::ostringstream fp;
  fp << circuit << " faults=" << report.num_faults
     << (paths.complete ? "" : "+") << " det=" << report.detected
     << " undet=" << report.undetectable << " abr=" << report.aborted
     << " prep=" << report.detectable_upper_bound
     << " fsim=" << report.detected_fsim
     << " heur=" << report.detected_heuristic
     << " bnb=" << report.detected_bnb << " tests=" << report.tests.size()
     << " st=" << h.hex();
  out.fingerprint = fp.str();
  out.faults = report.num_faults;
  out.detected = report.detected;
  out.tests = report.tests.size();
  if (report.detected + report.undetectable + report.aborted !=
          report.num_faults ||
      report.per_fault.size() != report.num_faults) {
    out.failure = "det + undet + abr != faults";
  }
  return out;
}

/// goldens[seed][workload] = one fingerprint per row, in row order.
using Goldens =
    std::map<std::uint64_t, std::map<std::string, std::vector<std::string>>>;

/// Reads "<seed> <workload> <fingerprint...>" lines; '#' starts a comment.
bool load_goldens(const std::string& path, Goldens& goldens) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::uint64_t seed = 0;
    std::string workload;
    if (!(is >> seed >> workload)) return false;
    std::string fingerprint;
    std::getline(is >> std::ws, fingerprint);
    goldens[seed][workload].push_back(fingerprint);
  }
  return true;
}

/// Marks rows whose fingerprint differs from the golden for this seed (seeds
/// without goldens are checked by invariants only).
void check_goldens(const Goldens& goldens, std::uint64_t seed,
                   const std::string& workload,
                   std::vector<RowReport>& rows) {
  const auto by_seed = goldens.find(seed);
  if (by_seed == goldens.end()) return;
  const auto it = by_seed->second.find(workload);
  const std::vector<std::string> none;
  const std::vector<std::string>& expected =
      it == by_seed->second.end() ? none : it->second;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].failure.empty()) continue;
    if (i >= expected.size() || expected[i] != rows[i].fingerprint) {
      rows[i].failure = "fingerprint differs from golden: " +
                        (i < expected.size() ? expected[i] : "<none>");
    }
  }
}

// ---------------------------------------------------------------------------
// Untraced passes: the library's experiment entry points, timed per row.

RowReport run_bist_row(const BistRow& row, bool with_hold, std::uint64_t seed,
                       fbt::jobs::JobSystem& pool) {
  const fbt::BistExperimentConfig cfg =
      bist_config(row, base_run_seed(with_hold, seed));
  reset_peak_rss();
  const auto t0 = Clock::now();
  fbt::BistExperimentResult base =
      fbt::run_bist_experiment(cfg, pool, fbt::ExperimentArtifacts{});
  fbt::HoldExperimentResult hold;
  if (with_hold) {
    hold = fbt::run_hold_experiment(base, hold_config(base.generation),
                                    kHoldSeed ^ seed);
  }
  const double seconds = seconds_since(t0);
  const double peak = peak_rss_mib();
  RowReport out =
      finish_bist_row(row, base, with_hold ? &hold : nullptr, pool, true);
  out.seconds = seconds;
  out.peak_rss_mib = peak;
  return out;
}

RowReport run_tpdf_row(const std::string& circuit, std::uint64_t seed) {
  reset_peak_rss();
  const auto t0 = Clock::now();
  const fbt::Netlist nl = fbt::load_benchmark(circuit);
  const fbt::PathEnumeration paths = fbt::enumerate_all_paths(nl, kMaxPaths);
  fbt::TpdfEngine engine(nl, tpdf_config(seed));
  const fbt::TpdfRunReport report = engine.run(both_transitions(paths));
  const double seconds = seconds_since(t0);
  const double peak = peak_rss_mib();
  RowReport out = finish_tpdf_row(circuit, paths, report);
  out.seconds = seconds;
  out.peak_rss_mib = peak;
  return out;
}

/// Runs `fn` and turns an exception into a failed row.
RowReport guarded(const std::string& label,
                  const std::function<RowReport()>& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    RowReport out;
    out.fingerprint = label + " <threw>";
    out.failure = std::string("threw: ") + e.what();
    return out;
  }
}

/// Drops what the library's always-on observability accumulated (phase
/// spans, journal events) so passes neither grow memory nor see each other.
void reset_obs_buffers() {
  fbt::obs::PhaseTrace::instance().clear();
  fbt::obs::journal().clear();
}

std::string row_name(const Workload& w, std::size_t i) {
  return w.kind == Kind::kTpdf ? w.circuits[i] : row_label(w.bist_rows[i]);
}

/// Row `i` of `w` through the library's experiment entry points.
RowReport run_row(const Workload& w, std::size_t i, std::uint64_t seed,
                  fbt::jobs::JobSystem& pool) {
  return guarded(row_name(w, i), [&] {
    return w.kind == Kind::kTpdf
               ? run_tpdf_row(w.circuits[i], seed)
               : run_bist_row(w.bist_rows[i], w.kind == Kind::kTable44, seed,
                              pool);
  });
}

/// One pass over the rows; `after_row` runs after each row, outside its
/// timing.
std::vector<RowReport> run_pass(const Workload& w, std::uint64_t seed,
                                fbt::jobs::JobSystem& pool,
                                const std::function<void()>& after_row = {}) {
  reset_obs_buffers();
  std::vector<RowReport> rows;
  for (std::size_t i = 0; i < w.num_rows(); ++i) {
    rows.push_back(run_row(w, i, seed, pool));
    if (after_row) after_row();
  }
  return rows;
}

/// One set-up of every row: netlist load/synthesis, the FlatFanins CSR and
/// the collapsed fault list (t43/t44), or netlist load and path enumeration
/// (ch2). Returns its wall time; `sink` keeps the results observable.
double setup_once(const Workload& w, std::size_t& sink) {
  const auto t0 = Clock::now();
  if (w.kind == Kind::kTpdf) {
    for (const std::string& c : w.circuits) {
      const fbt::Netlist nl = fbt::load_benchmark(c);
      sink += both_transitions(fbt::enumerate_all_paths(nl, kMaxPaths)).size();
    }
  } else {
    for (const BistRow& r : w.bist_rows) {
      const fbt::Netlist target = fbt::load_benchmark(r.target);
      const fbt::Netlist driver =
          unconstrained(r) ? fbt::make_buffers_block(target.num_inputs())
                           : fbt::load_benchmark(r.driver);
      const fbt::FlatFanins flat(target);
      sink += driver.num_gates() +
              fbt::TransitionFaultList::collapsed(target).size();
    }
  }
  return seconds_since(t0);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// setup_s is the fastest set-up repetition of the run. On the 4-vCPU VM the
/// benchmark was written on, the host has slow phases of 0.1-1 s in which
/// everything runs up to 1.5x slower, and the median of the repetitions moved
/// by 30-50% from run to run; the minimum moves only with slow phases that
/// outlast a whole run. Batches of at least 5
/// repetitions and 0.1 s run before the first pass and after every row, and
/// at the end until there are 9, so the repetitions are spread over the run
/// rather than all falling into one slow phase.
class SetupSampler {
 public:
  explicit SetupSampler(const Workload& w) : w_(w) {}

  void batch() {
    const auto t0 = Clock::now();
    for (std::size_t reps = 0; reps < 5 || seconds_since(t0) < 0.1; ++reps) {
      const double s = setup_once(w_, sink_);
      best_ = reps_++ == 0 ? s : std::min(best_, s);
    }
    ++batches_;
  }
  void top_up() {
    while (batches_ < 9) batch();
  }
  double seconds() const { return best_; }
  std::size_t batches() const { return batches_; }
  std::size_t reps() const { return reps_; }
  std::size_t sink() const { return sink_; }

 private:
  const Workload& w_;
  double best_ = 0.0;
  std::size_t batches_ = 0;
  std::size_t reps_ = 0;
  std::size_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// Traced pass: each layer's public functions called from here, one span per
// call. Spans stay in memory and are written once at exit.

class Tracer {
 public:
  struct Span {
    std::string name;
    int row = -1;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  int open(std::string name, int row, int parent) {
    spans_.push_back({std::move(name), row, parent, now(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[id].end_s = now(); }
  /// Summed duration of every span named `name`.
  double total(std::string_view name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += s.end_s - s.start_s;
    }
    return sum;
  }
  /// Summed duration of the spans whose parent is a "row" span (the layer
  /// calls); with row spans' own durations this gives the unattributed time.
  double layer_total() const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.parent >= 0 && spans_[s.parent].name == "row") {
        sum += s.end_s - s.start_s;
      }
    }
    return sum;
  }
  bool write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed,
                  const std::vector<std::string>& row_labels) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
        << ", \"rows\": [";
    for (std::size_t i = 0; i < row_labels.size(); ++i) {
      out << (i ? ", " : "") << '"' << row_labels[i] << '"';
    }
    out << "], \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "  {\"id\": %zu, \"name\": \"%s\", \"row\": %d, "
                    "\"parent\": %d, \"start_us\": %.1f, \"end_us\": %.1f}%s\n",
                    i, s.name.c_str(), s.row, s.parent, s.start_s * 1e6,
                    s.end_s * 1e6, i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  double now() const { return seconds_since(epoch_); }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

std::uint64_t counter(std::string_view name) {
  return fbt::obs::registry().counter(name).value();
}

std::uint64_t gate_evals() {
  return counter("sim.seqsim_gates_evaluated") +
         counter("sim.packed_gates_evaluated") +
         counter("sim.bitsim_gates_evaluated");
}

std::uint64_t cycles_stepped() {
  return counter("sim.seqsim_cycles_stepped") +
         counter("sim.packed_cycles_stepped");
}

/// Work counts of the traced pass, taken as registry deltas around the
/// layer calls, plus time the library's own "grade" spans report.
struct LayerWork {
  double grade_s = 0.0;
  std::uint64_t tests_graded = 0;
  std::uint64_t reduce_cells = 0;
  std::uint64_t reduce_groups = 0;
  std::uint64_t reduce_kept = 0;
  std::uint64_t calibrate_gate_evals = 0;
  std::uint64_t construct_gate_evals = 0;
  std::uint64_t seeds_tried = 0;
  std::uint64_t seeds_accepted = 0;
  std::uint64_t speculated_lanes = 0;
  std::uint64_t speculation_wasted = 0;
  double tf_atpg_s = 0.0;
  double preprocess_s = 0.0;
  double fsim_s = 0.0;
  double heuristic_s = 0.0;
  double bnb_s = 0.0;
  std::uint64_t backtracks = 0;
};

/// Summed duration of every recorded library span named `name` (the trace
/// is cleared before each traced call, so this covers that call only).
double library_span_seconds(const std::vector<fbt::obs::PhaseNode>& nodes,
                            std::string_view name) {
  double sum = 0.0;
  for (const fbt::obs::PhaseNode& n : nodes) {
    if (n.name == name) {
      sum += static_cast<double>(n.dur_us) * 1e-6;
    } else {
      sum += library_span_seconds(n.children, name);
    }
  }
  return sum;
}

/// run_bist_experiment (+ run_hold_experiment), one layer call at a time.
/// Mirrors src/flow/bist_flow.cpp step for step, except that the artifact
/// stage (loads, CSR, fault collapsing, calibration) runs in sequence here
/// where the library runs it as a task graph on the pool.
RowReport traced_bist_row(const BistRow& row, bool with_hold,
                          std::uint64_t seed, int row_id,
                          fbt::jobs::JobSystem& pool, Tracer& tr,
                          LayerWork& work) {
  const fbt::BistExperimentConfig cfg =
      bist_config(row, base_run_seed(with_hold, seed));
  const int row_span = tr.open("row", row_id, -1);

  int s = tr.open("netlist.load", row_id, row_span);
  fbt::Netlist target = fbt::load_benchmark(cfg.target_name);
  const fbt::Netlist driver =
      unconstrained(row) ? fbt::make_buffers_block(target.num_inputs())
                         : fbt::load_benchmark(cfg.driver_name);
  const auto flat = std::make_shared<const fbt::FlatFanins>(target);
  fbt::ScanChains scan(target, cfg.scan);
  tr.close(s);

  s = tr.open("fault.collapse", row_id, row_span);
  fbt::TransitionFaultList faults = fbt::TransitionFaultList::collapsed(target);
  tr.close(s);

  s = tr.open("bist.calibrate", row_id, row_span);
  std::uint64_t evals0 = gate_evals();
  const double swa_func =
      fbt::measure_swa_func(target, driver, cfg.calibration, flat)
          .peak_percent;
  tr.close(s);
  work.calibrate_gate_evals += gate_evals() - evals0;

  fbt::FunctionalBistConfig gen = cfg.generation;
  gen.swa_bound_percent = swa_func;
  gen.bounded = !unconstrained(row);
  gen.num_threads = cfg.num_threads;
  gen.speculation_lanes = cfg.speculation_lanes;
  gen.fault_pack_width = cfg.fault_pack_width;
  fbt::BistExperimentResult result{.target = std::move(target),
                                   .scan = std::move(scan),
                                   .faults = std::move(faults),
                                   .detect_count = {},
                                   .swa_func = swa_func,
                                   .run = {},
                                   .detected = 0,
                                   .fault_coverage_percent = 0.0,
                                   .hw_area = 0.0,
                                   .circuit_area_um2 = 0.0,
                                   .overhead_percent = 0.0,
                                   .nsp = 0,
                                   .generation = gen,
                                   .rtl = {}};
  result.detect_count.assign(result.faults.size(), 0);

  fbt::obs::PhaseTrace::instance().clear();
  evals0 = gate_evals();
  const std::uint64_t graded0 = counter("fault.tests_graded");
  const std::uint64_t tried0 = counter("bist.segments_built");
  const std::uint64_t accepted0 = counter("bist.segments_accepted");
  const std::uint64_t lanes0 = counter("bist.speculated_lanes");
  const std::uint64_t wasted0 = counter("bist.speculation_wasted");
  s = tr.open("bist.construct", row_id, row_span);
  fbt::FunctionalBistGenerator generator(result.target, gen, flat, &pool);
  result.run = generator.run(result.faults, result.detect_count);
  tr.close(s);
  work.construct_gate_evals += gate_evals() - evals0;
  work.tests_graded += counter("fault.tests_graded") - graded0;
  work.seeds_tried += counter("bist.segments_built") - tried0;
  work.seeds_accepted += counter("bist.segments_accepted") - accepted0;
  work.speculated_lanes += counter("bist.speculated_lanes") - lanes0;
  work.speculation_wasted += counter("bist.speculation_wasted") - wasted0;
  work.grade_s += library_span_seconds(
      fbt::obs::PhaseTrace::instance().roots(), "grade");
  result.seeds_before_reduction = result.run.num_seeds;
  result.sequences_before_reduction = result.run.sequences.size();

  s = tr.open("fault.reduce", row_id, row_span);
  if (cfg.reduce_sequences && result.run.sequences.size() > 1) {
    std::vector<std::size_t> group_of;
    group_of.reserve(result.run.tests.size());
    for (std::size_t q = 0; q < result.run.sequences.size(); ++q) {
      std::size_t tests_in_sequence = 0;
      for (const fbt::SegmentRecord& seg : result.run.sequences[q].segments) {
        tests_in_sequence += seg.num_tests;
      }
      group_of.insert(group_of.end(), tests_in_sequence, q);
    }
    const std::vector<std::size_t> kept = fbt::reduce_groups(
        result.target, result.run.tests, result.faults, group_of,
        result.run.sequences.size(), cfg.num_threads, &pool,
        static_cast<std::uint32_t>(cfg.fault_pack_width));
    work.reduce_cells += static_cast<std::uint64_t>(result.run.tests.size()) *
                         result.faults.size();
    work.reduce_groups += result.run.sequences.size();
    work.reduce_kept += kept.size();
    if (kept.size() < result.run.sequences.size()) {
      fbt::FunctionalBistResult reduced;
      reduced.newly_detected = result.run.newly_detected;
      reduced.peak_swa = result.run.peak_swa;
      reduced.first_detect = std::move(result.run.first_detect);
      for (std::size_t t = 0; t < result.run.tests.size(); ++t) {
        if (std::find(kept.begin(), kept.end(), group_of[t]) != kept.end()) {
          reduced.tests.push_back(std::move(result.run.tests[t]));
        }
      }
      for (const std::size_t q : kept) {
        reduced.sequences.push_back(std::move(result.run.sequences[q]));
        for (const fbt::SegmentRecord& seg :
             reduced.sequences.back().segments) {
          reduced.lmax = std::max(reduced.lmax, seg.length);
          ++reduced.num_seeds;
        }
        reduced.nseg_max = std::max(reduced.nseg_max,
                                    reduced.sequences.back().segments.size());
      }
      reduced.num_tests = reduced.tests.size();
      result.run = std::move(reduced);
    }
  }
  tr.close(s);

  for (const std::uint32_t c : result.detect_count) {
    if (c >= gen.detect_limit) ++result.detected;
  }
  result.fault_coverage_percent =
      result.faults.size() == 0
          ? 0.0
          : 100.0 * static_cast<double>(result.detected) /
                static_cast<double>(result.faults.size());

  s = tr.open("bist.cost", row_id, row_span);
  const fbt::BistHardwarePlan plan = fbt::plan_functional_bist_hardware(
      generator.tpg(), result.scan, result.run);
  result.hw_area = fbt::bist_area(plan);
  result.circuit_area_um2 = fbt::circuit_area(result.target);
  result.overhead_percent = 100.0 * result.hw_area / result.circuit_area_um2;
  tr.close(s);

  fbt::HoldExperimentResult hold;
  if (with_hold) {
    const std::size_t before = result.detected;
    const fbt::HoldSelectionConfig hcfg = hold_config(result.generation);
    s = tr.open("bist.hold", row_id, row_span);
    hold.hold = fbt::select_and_run_hold_sets(result.target, result.faults,
                                              result.detect_count, hcfg,
                                              kHoldSeed ^ seed);
    tr.close(s);
    for (const std::uint32_t c : result.detect_count) {
      if (c >= hcfg.commit.detect_limit) ++hold.detected_total;
    }
    const double total = static_cast<double>(result.faults.size());
    hold.final_coverage_percent =
        total == 0 ? 0.0 : 100.0 * hold.detected_total / total;
    hold.coverage_improvement_percent =
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(hold.detected_total - before) /
                         total;
    s = tr.open("bist.cost", row_id, row_span);
    const fbt::Tpg tpg(result.target, result.generation.tpg);
    hold.hw_area = fbt::bist_area(fbt::plan_hold_bist_hardware(
        tpg, result.scan, result.run, hold.hold));
    hold.overhead_percent = 100.0 * hold.hw_area / result.circuit_area_um2;
    tr.close(s);
  }
  tr.close(row_span);
  return finish_bist_row(row, result, with_hold ? &hold : nullptr, pool,
                         false);
}

RowReport traced_tpdf_row(const std::string& circuit, std::uint64_t seed,
                          int row_id, Tracer& tr, LayerWork& work) {
  const int row_span = tr.open("row", row_id, -1);
  int s = tr.open("netlist.load", row_id, row_span);
  const fbt::Netlist nl = fbt::load_benchmark(circuit);
  tr.close(s);

  s = tr.open("paths.enumerate", row_id, row_span);
  const fbt::PathEnumeration paths = fbt::enumerate_all_paths(nl, kMaxPaths);
  const std::vector<fbt::PathDelayFault> faults = both_transitions(paths);
  tr.close(s);

  const std::uint64_t backtracks0 = counter("atpg.podem_backtracks");
  s = tr.open("atpg.tpdf", row_id, row_span);
  fbt::TpdfEngine engine(nl, tpdf_config(seed));
  const fbt::TpdfRunReport report = engine.run(faults);
  tr.close(s);
  tr.close(row_span);
  work.backtracks += counter("atpg.podem_backtracks") - backtracks0;
  work.tf_atpg_s += report.seconds_tf_atpg;
  work.preprocess_s += report.seconds_preprocessing;
  work.fsim_s += report.seconds_fsim;
  work.heuristic_s += report.seconds_heuristic;
  work.bnb_s += report.seconds_bnb;
  return finish_tpdf_row(circuit, paths, report);
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Prints failed rows to stderr; returns how many failed.
std::size_t report_failures(const std::vector<RowReport>& rows) {
  std::size_t failed = 0;
  for (const RowReport& r : rows) {
    if (r.failure.empty()) continue;
    ++failed;
    std::fprintf(stderr, "[perfbench] FAILED %s: %s\n", r.fingerprint.c_str(),
                 r.failure.c_str());
  }
  return failed;
}

int run_untraced(const Workload& w, std::uint64_t seed, double seconds,
                 const Goldens& goldens, fbt::jobs::JobSystem& pool) {
  SetupSampler setup(w);
  setup.batch();

  std::vector<double> walls, peaks, coverages, tests;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto start = Clock::now();
  do {
    std::vector<RowReport> rows =
        run_pass(w, seed, pool, [&] { setup.batch(); });
    check_goldens(goldens, seed, w.name, rows);
    double wall = 0.0;
    double peak = 0.0;
    std::size_t faults = 0;
    std::size_t detected = 0;
    std::size_t applied = 0;
    std::printf("[perfbench] %s pass %zu\n", w.name.c_str(), walls.size());
    for (const RowReport& r : rows) {
      std::printf("  %8.3f s %8.1f MiB  %s\n", r.seconds, r.peak_rss_mib,
                  r.fingerprint.c_str());
      wall += r.seconds;
      peak = std::max(peak, r.peak_rss_mib);
      faults += r.faults;
      detected += r.detected;
      applied += r.tests;
    }
    walls.push_back(wall);
    peaks.push_back(peak);
    coverages.push_back(100.0 * ratio(detected, faults));
    tests.push_back(static_cast<double>(applied));
    attempted += rows.size();
    failed += report_failures(rows);
  } while (seconds_since(start) < seconds);
  setup.top_up();

  std::printf("[perfbench] %s seed=%llu: %zu pass(es), %zu set-up batches "
              "of %zu repetitions (sink %zu)\n",
              w.name.c_str(), static_cast<unsigned long long>(seed),
              walls.size(), setup.batches(), setup.reps(), setup.sink());
  const std::vector<Metric> metrics = {
      {"wall_s", median(walls), "s"},
      {"setup_s", setup.seconds(), "s"},
      {"peak_rss_mb", median(peaks), "MiB"},
      {"fault_coverage_pct", median(coverages), "%"},
      {"tests_applied", median(tests), "count"},
      {"rows_passed_pct", 100.0 * ratio(attempted - failed, attempted), "%"},
  };
  for (const Metric& m : metrics) {
    std::printf("  %-20s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

int run_traced(const Workload& w, std::uint64_t seed, const Goldens& goldens,
               fbt::jobs::JobSystem& pool, const std::string& trace_out) {
  // Every row runs twice, untraced (the library entry points) and traced,
  // back to back; which goes first alternates from row to row and seed to
  // seed, so neither side is always the one that runs cold. The scheduler
  // metrics are deltas around the untraced rows: those run the library's own
  // task graph, which the traced mirror does not reproduce. The sim counts
  // are deltas around the traced rows.
  Tracer tr;
  LayerWork work;
  std::vector<RowReport> plain, traced;
  std::vector<std::string> labels;
  double busy_ms = 0.0, elapsed_ms = 0.0;
  std::uint64_t steals = 0, evals = 0, cycles = 0;
  for (std::size_t i = 0; i < w.num_rows(); ++i) {
    const int id = static_cast<int>(i);
    labels.push_back(row_name(w, i));
    const auto untraced_row = [&] {
      reset_obs_buffers();
      const fbt::jobs::SchedulerSnapshot s0 = pool.scheduler_snapshot();
      plain.push_back(run_row(w, i, seed, pool));
      const fbt::jobs::SchedulerSnapshot s1 = pool.scheduler_snapshot();
      busy_ms += s1.busy_ms - s0.busy_ms;
      elapsed_ms += s1.elapsed_ms - s0.elapsed_ms;
      steals += s1.steals - s0.steals;
    };
    const auto traced_row = [&] {
      reset_obs_buffers();
      const std::uint64_t evals0 = gate_evals();
      const std::uint64_t cycles0 = cycles_stepped();
      traced.push_back(guarded(labels.back(), [&] {
        return w.kind == Kind::kTpdf
                   ? traced_tpdf_row(w.circuits[i], seed, id, tr, work)
                   : traced_bist_row(w.bist_rows[i], w.kind == Kind::kTable44,
                                     seed, id, pool, tr, work);
      }));
      evals += gate_evals() - evals0;
      cycles += cycles_stepped() - cycles0;
    };
    const bool untraced_first = (i + seed) % 2 == 0;
    const double traced_before_s = tr.total("row");
    if (untraced_first) {
      untraced_row();
      traced_row();
    } else {
      traced_row();
      untraced_row();
    }
    const double traced_row_s = tr.total("row") - traced_before_s;
    std::printf("[perfbench] %s: untraced %.3f s, traced %.3f s (%s first)\n",
                labels.back().c_str(), plain.back().seconds, traced_row_s,
                untraced_first ? "untraced" : "traced");
  }
  check_goldens(goldens, seed, w.name, plain);
  double plain_s = 0.0;
  for (const RowReport& r : plain) plain_s += r.seconds;
  // Row spans hold the layer calls; the output checks in finish_* run
  // outside them and are not part of the traced time.
  const double traced_s = tr.total("row");

  for (std::size_t i = 0; i < traced.size(); ++i) {
    if (traced[i].failure.empty() &&
        traced[i].fingerprint != plain[i].fingerprint) {
      traced[i].failure = "traced fingerprint differs from untraced: " +
                          plain[i].fingerprint;
    }
  }
  const std::size_t failed =
      report_failures(plain) + report_failures(traced);

  const double construct_total = tr.total("bist.construct");
  const double tpdf_s = tr.total("atpg.tpdf");
  const double unattributed = traced_s - tr.layer_total();
  const double busy_s = busy_ms * 1e-3;
  const double elapsed_s = elapsed_ms * 1e-3;

  const std::vector<Metric> metrics = {
      {"netlist.load_s", tr.total("netlist.load"), "s"},
      {"fault.collapse_s", tr.total("fault.collapse"), "s"},
      {"fault.grade_s", work.grade_s, "s"},
      {"fault.tests_graded", static_cast<double>(work.tests_graded), "count"},
      {"fault.reduce_s", tr.total("fault.reduce"), "s"},
      {"fault.reduce_matrix_cells", static_cast<double>(work.reduce_cells),
       "count"},
      {"fault.reduce_kept_ratio",
       ratio(static_cast<double>(work.reduce_kept),
             static_cast<double>(work.reduce_groups)),
       "ratio"},
      {"bist.calibrate_s", tr.total("bist.calibrate"), "s"},
      {"bist.calibrate_ns_per_gate_cycle",
       1e9 * ratio(tr.total("bist.calibrate"),
                   static_cast<double>(work.calibrate_gate_evals)),
       "ns"},
      {"bist.construct_s", construct_total - work.grade_s, "s"},
      {"bist.construct_ns_per_gate_eval",
       1e9 * ratio(construct_total - work.grade_s,
                   static_cast<double>(work.construct_gate_evals)),
       "ns"},
      {"bist.seeds_tried", static_cast<double>(work.seeds_tried), "count"},
      {"bist.seed_accept_ratio",
       ratio(static_cast<double>(work.seeds_accepted),
             static_cast<double>(work.seeds_tried)),
       "ratio"},
      {"bist.speculated_lanes", static_cast<double>(work.speculated_lanes),
       "count"},
      {"bist.speculation_waste_ratio",
       ratio(static_cast<double>(work.speculation_wasted),
             static_cast<double>(work.speculated_lanes)),
       "ratio"},
      {"bist.hold_s", tr.total("bist.hold"), "s"},
      {"bist.cost_s", tr.total("bist.cost"), "s"},
      {"sim.gate_evals", static_cast<double>(evals), "count"},
      {"sim.cycles_stepped", static_cast<double>(cycles), "count"},
      {"paths.enumerate_s", tr.total("paths.enumerate"), "s"},
      {"atpg.tpdf_s", tpdf_s, "s"},
      {"atpg.tf_atpg_s", work.tf_atpg_s, "s"},
      {"atpg.preprocess_s", work.preprocess_s, "s"},
      {"atpg.fsim_s", work.fsim_s, "s"},
      {"atpg.heuristic_s", work.heuristic_s, "s"},
      {"atpg.bnb_s", work.bnb_s, "s"},
      {"atpg.backtracks", static_cast<double>(work.backtracks), "count"},
      {"atpg.ns_per_backtrack",
       1e9 * ratio(tpdf_s, static_cast<double>(work.backtracks)), "ns"},
      {"jobs.utilization",
       ratio(busy_s, static_cast<double>(kWorkers) * elapsed_s), "ratio"},
      {"jobs.steals", static_cast<double>(steals), "count"},
      {"jobs.cpu_s", busy_s, "s"},
      {"flow.unattributed_s", unattributed, "s"},
      {"trace.overhead_pct", 100.0 * ratio(traced_s - plain_s, plain_s), "%"},
  };

  // Ratios with their bases, and each leaf layer's share of the traced time.
  std::printf("[perfbench] %s seed=%llu traced: %.3f s, untraced: %.3f s\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), traced_s,
              plain_s);
  std::printf("  fault.reduce_kept_ratio = %llu kept / %llu groups\n",
              static_cast<unsigned long long>(work.reduce_kept),
              static_cast<unsigned long long>(work.reduce_groups));
  std::printf("  bist.seed_accept_ratio = %llu accepted / %llu tried\n",
              static_cast<unsigned long long>(work.seeds_accepted),
              static_cast<unsigned long long>(work.seeds_tried));
  std::printf("  bist.speculation_waste_ratio = %llu wasted / %llu lanes\n",
              static_cast<unsigned long long>(work.speculation_wasted),
              static_cast<unsigned long long>(work.speculated_lanes));
  std::printf("  bist.calibrate_ns_per_gate_cycle base = %llu gate evals\n",
              static_cast<unsigned long long>(work.calibrate_gate_evals));
  std::printf("  bist.construct_ns_per_gate_eval base = %llu gate evals\n",
              static_cast<unsigned long long>(work.construct_gate_evals));
  std::printf("  atpg.ns_per_backtrack base = %llu backtracks\n",
              static_cast<unsigned long long>(work.backtracks));
  std::printf("  jobs.utilization = %.3f busy s / (%zu workers x %.3f s)\n",
              busy_s, kWorkers, elapsed_s);
  const std::vector<std::pair<std::string, double>> leaves = {
      {"netlist.load", tr.total("netlist.load")},
      {"fault.collapse", tr.total("fault.collapse")},
      {"bist.calibrate", tr.total("bist.calibrate")},
      {"bist.construct", construct_total - work.grade_s},
      {"fault.grade", work.grade_s},
      {"fault.reduce", tr.total("fault.reduce")},
      {"bist.hold", tr.total("bist.hold")},
      {"bist.cost", tr.total("bist.cost")},
      {"paths.enumerate", tr.total("paths.enumerate")},
      {"atpg.tf_atpg", work.tf_atpg_s},
      {"atpg.preprocess", work.preprocess_s},
      {"atpg.fsim", work.fsim_s},
      {"atpg.heuristic", work.heuristic_s},
      {"atpg.bnb", work.bnb_s},
      {"atpg.other", tpdf_s - work.tf_atpg_s - work.preprocess_s -
                         work.fsim_s - work.heuristic_s - work.bnb_s},
      {"flow.unattributed", unattributed},
  };
  std::string largest;
  double largest_s = -1.0;
  for (const auto& [name, sec] : leaves) {
    if (sec <= 0.0) continue;
    std::printf("  layer %-18s %9.3f s %6.2f%%\n", name.c_str(), sec,
                100.0 * ratio(sec, traced_s));
    if (sec > largest_s) {
      largest = name;
      largest_s = sec;
    }
  }
  std::printf("  largest layer: %s\n", largest.c_str());

  bool wrote = true;
  if (!trace_out.empty()) {
    wrote = tr.write_json(trace_out, w.name, seed, labels);
    if (!wrote) {
      std::fprintf(stderr, "[perfbench] cannot write %s\n", trace_out.c_str());
    }
  }
  print_result(failed == 0 && wrote, plain.size() + traced.size(), failed,
               metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  const std::string name = cli.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 0));
  const double seconds = cli.get_double("seconds", 10.0);
  const bool trace = cli.get_int("trace", 0) != 0;
  const std::string goldens_path = cli.get("goldens", "");

  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (w.name == name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  Goldens goldens;
  if (!cli.has("print-fingerprints") &&
      !load_goldens(goldens_path, goldens)) {
    std::fprintf(stderr, "perfbench: cannot read --goldens '%s'\n",
                 goldens_path.c_str());
    return 2;
  }

  fbt::jobs::JobSystem pool(kWorkers);
  if (cli.has("print-fingerprints")) {
    // Golden lines for this seed, in the format load_goldens reads.
    const std::vector<RowReport> rows = run_pass(*workload, seed, pool);
    for (const RowReport& r : rows) {
      std::printf("%llu %s %s\n", static_cast<unsigned long long>(seed),
                  workload->name.c_str(), r.fingerprint.c_str());
    }
    return report_failures(rows) == 0 ? 0 : 1;
  }
  return trace ? run_traced(*workload, seed, goldens, pool,
                            cli.get("trace-out", ""))
               : run_untraced(*workload, seed, seconds, goldens, pool);
}
