// Serial vs PPSFP packed fault-grading throughput on one registry circuit.
//
// Grades the same random broadside test set against the full collapsed fault
// list with the serial test oracle (tests/fault/serial_fault_sim.hpp: one
// fault at a time, 64 tests per word) and with BroadsideFaultSim's PPSFP
// engine (up to 64 faults per word against the shared good-machine trace),
// verifying bit-identical detect counts and first-detect provenance. The
// realistic grade mode (fault dropping at --detect-limit, default 1) is the
// gated measurement: the gauge fault.pack_speedup_64 (serial ms / packed ms)
// feeds the fbt_report diff --min-pack-speedup CI gate. A no-drop pass is
// reported alongside as the raw-propagation bound. Writes BENCH_ppsfp.json
// with the timings, speedups, and pack-efficiency gauges (groups simulated,
// lanes wasted, diff words propagated).
//
// Flags: --target (registry circuit, default des_perf), --tests (1..65536,
// default 256), --repeats (1..1000, default 5), --detect-limit
// (1..1073741824, default 1). A value out of range exits with status 2
// before anything is built.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "circuits/registry.hpp"
#include "fault/fault_sim.hpp"
#include "fault/serial_fault_sim.hpp"
#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "serve/shutdown.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

fbt::TestSet random_tests(const fbt::Netlist& nl, std::size_t count,
                          std::uint64_t seed) {
  fbt::Pcg32 rng(seed);
  fbt::TestSet tests;
  for (std::size_t i = 0; i < count; ++i) {
    fbt::BroadsideTest t;
    for (std::size_t k = 0; k < nl.num_flops(); ++k) {
      t.scan_state.push_back(rng.chance(1, 2));
    }
    for (std::size_t k = 0; k < nl.num_inputs(); ++k) {
      t.v1.push_back(rng.chance(1, 2));
      t.v2.push_back(rng.chance(1, 2));
    }
    tests.push_back(std::move(t));
  }
  return tests;
}

struct GradeRun {
  std::vector<std::uint32_t> counts;
  fbt::GradeProvenance provenance;
};

constexpr std::uint32_t kNoDrop = 1u << 30;  // keep every fault active

// One timed repeat: the pure grade, no provenance -- provenance collection
// is optional telemetry, off on the flow's hot path.
template <typename Sim>
double timed_grade(Sim& sim,
                   const fbt::TestSet& tests,
                   const fbt::TransitionFaultList& faults,
                   std::uint32_t detect_limit) {
  std::vector<std::uint32_t> counts(faults.size(), 0);
  fbt::Timer t;
  sim.grade(tests, faults, counts, detect_limit);
  return t.ms();
}

// Untimed pass collecting the counts and provenance the identity check
// compares.
template <typename Sim>
GradeRun identity_grade(Sim& sim,
                        const fbt::TestSet& tests,
                        const fbt::TransitionFaultList& faults,
                        std::uint32_t detect_limit) {
  GradeRun out;
  out.counts.assign(faults.size(), 0);
  sim.grade(tests, faults, out.counts, detect_limit, &out.provenance);
  return out;
}

bool same_results(const GradeRun& a, const GradeRun& b) {
  return a.counts == b.counts &&
         a.provenance.first_hits == b.provenance.first_hits &&
         a.provenance.blocks == b.provenance.blocks;
}

}  // namespace

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  // des_perf is the largest registry circuit (4800 gates, 1200 flops).
  const std::string target_name = cli.get("target", "des_perf");
  const auto num_tests =
      static_cast<std::size_t>(cli.get_int_in("tests", 256, 1, 65536));
  const auto repeats =
      static_cast<std::size_t>(cli.get_int_in("repeats", 5, 1, 1000));
  const auto detect_limit =
      static_cast<std::uint32_t>(cli.get_int_in("detect-limit", 1, 1, kNoDrop));

  // On SIGINT/SIGTERM: flush the journal + write the (partial) bench
  // report before exiting with the conventional 128+signum status.
  fbt::serve::GracefulShutdown shutdown([](int sig) {
    std::fprintf(stderr, "[bench_ppsfp] caught signal %d, flushing report\n",
                 sig);
    fbt::obs::write_bench_report("ppsfp", {{"interrupted", "yes"}});
    std::_Exit(fbt::serve::GracefulShutdown::exit_status(sig));
  });

  fbt::Timer total;
  const fbt::Netlist nl = fbt::load_benchmark(target_name);
  const fbt::TransitionFaultList faults =
      fbt::TransitionFaultList::collapsed(nl);
  const fbt::TestSet tests = random_tests(nl, num_tests, 0xbadcafeULL);

  std::printf("[bench_ppsfp] target=%s tests=%zu faults=%zu detect_limit=%u\n",
              target_name.c_str(), tests.size(), faults.size(), detect_limit);

  fbt::Table table("PPSFP packed fault grading (" + target_name + ", " +
                   std::to_string(tests.size()) + " tests, " +
                   std::to_string(faults.size()) + " faults, limit " +
                   std::to_string(detect_limit) + ")");
  table.set_header({"engine", "grade ms", "speedup", "identical"});

  fbt::testing::SerialFaultSim serial(nl);
  fbt::BroadsideFaultSim packed(nl);

  // Timed repeats run interleaved across the two graders: a noisy phase of a
  // shared host hits both instead of whichever one happened to be running,
  // so the best-of ratio stays comparable.
  double serial_best = 1e300;
  double packed_best = 1e300;
  for (std::size_t r = 0; r < repeats; ++r) {
    serial_best = std::min(serial_best,
                           timed_grade(serial, tests, faults, detect_limit));
    packed_best = std::min(packed_best,
                           timed_grade(packed, tests, faults, detect_limit));
  }

  const GradeRun serial_run =
      identity_grade(serial, tests, faults, detect_limit);
#if FBT_OBS_ENABLED
  const auto counter = [](const char* name) {
    return static_cast<double>(fbt::obs::registry().counter(name).value());
  };
  const double groups0 = counter("fault.pack_groups_simulated");
  const double wasted0 = counter("fault.pack_lanes_wasted");
  const double words0 = counter("fault.pack_diff_words_propagated");
#endif
  const GradeRun packed_run =
      identity_grade(packed, tests, faults, detect_limit);
  const bool identical = same_results(packed_run, serial_run);
  const double speedup = packed_best > 0 ? serial_best / packed_best : 0.0;
  table.add_row({"serial", fbt::Table::num(serial_best, 2), "1.00", "ref"});
  table.add_row({"w64", fbt::Table::num(packed_best, 2),
                 fbt::Table::num(speedup, 2), identical ? "yes" : "NO"});
  FBT_OBS_GAUGE_SET("fault.ppsfp_bench_serial_ms", serial_best);
  FBT_OBS_GAUGE_SET("fault.pack_bench_w64_ms", packed_best);
  FBT_OBS_GAUGE_SET("fault.pack_bench_speedup_w64", speedup);
  // The gated quantity.
  FBT_OBS_GAUGE_SET("fault.pack_speedup_64", speedup);
#if FBT_OBS_ENABLED
  // Pack-efficiency gauges over one grade call (the identity pass).
  FBT_OBS_GAUGE_SET("fault.pack_bench_groups_simulated",
                    counter("fault.pack_groups_simulated") - groups0);
  FBT_OBS_GAUGE_SET("fault.pack_bench_lanes_wasted",
                    counter("fault.pack_lanes_wasted") - wasted0);
  FBT_OBS_GAUGE_SET("fault.pack_bench_diff_words",
                    counter("fault.pack_diff_words_propagated") - words0);
#endif

  // No-drop pass: every fault stays active through every block, the raw
  // propagation-throughput bound. Same interleaving.
  double serial_nd_best = 1e300;
  double packed_nd_best = 1e300;
  for (std::size_t r = 0; r < repeats; ++r) {
    serial_nd_best =
        std::min(serial_nd_best, timed_grade(serial, tests, faults, kNoDrop));
    packed_nd_best =
        std::min(packed_nd_best, timed_grade(packed, tests, faults, kNoDrop));
  }
  const GradeRun serial_nodrop = identity_grade(serial, tests, faults, kNoDrop);
  const GradeRun packed_nodrop = identity_grade(packed, tests, faults, kNoDrop);
  const bool nodrop_identical = same_results(packed_nodrop, serial_nodrop);
  const bool all_identical = identical && nodrop_identical;
  const double nodrop_speedup =
      packed_nd_best > 0 ? serial_nd_best / packed_nd_best : 0.0;
  table.add_row(
      {"nodrop serial", fbt::Table::num(serial_nd_best, 2), "1.00", "ref"});
  table.add_row({"nodrop w64", fbt::Table::num(packed_nd_best, 2),
                 fbt::Table::num(nodrop_speedup, 2),
                 nodrop_identical ? "yes" : "NO"});
  FBT_OBS_GAUGE_SET("fault.pack_nodrop_speedup_64", nodrop_speedup);

  table.print();
  std::printf("[bench_ppsfp] identical=%s done in %s\n",
              all_identical ? "yes" : "NO", total.pretty().c_str());

  fbt::obs::write_bench_report(
      "ppsfp", {{"target", target_name},
                {"tests", std::to_string(tests.size())},
                {"faults", std::to_string(faults.size())},
                {"repeats", std::to_string(repeats)},
                {"detect_limit", std::to_string(detect_limit)},
                {"identical", all_identical ? "yes" : "no"}});
  return all_identical ? 0 : 1;
}
