// Memory/walltime scaling sweep over synthetic circuits.
//
// Builds deterministic synthetic CUTs at several gate counts (default 2k to
// 120k gates) and, per size, runs the structures every flow allocates --
// netlist with its eval CSR, collapsed fault list, bit-parallel simulator --
// through a bounded simulate + grade workload. Records per-size walltime,
// peak RSS, deterministic content-byte footprints, and bytes-per-gate into
// BENCH_scale.json (the run report's "memory" section). CI diffs the
// report against bench/baselines/BENCH_scale.json with a tight
// bytes-per-gate gate: a data-structure growth regression fails the build
// even when walltime noise hides it.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "circuits/synth.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/bench_io.hpp"
#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/run_report.hpp"
#include "sim/bitsim.hpp"
#include "serve/shutdown.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

// Referenced from the signal-flush path, which must stay capture-free.
std::string g_report_name = "scale";

std::vector<std::size_t> parse_sizes(const std::string& spec) {
  std::vector<std::size_t> sizes;
  std::size_t value = 0;
  bool have_digit = false;
  for (const char c : spec) {
    if (c >= '0' && c <= '9') {
      value = value * 10 + static_cast<std::size_t>(c - '0');
      have_digit = true;
    } else {
      if (have_digit) sizes.push_back(value);
      value = 0;
      have_digit = false;
    }
  }
  if (have_digit) sizes.push_back(value);
  return sizes;
}

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

}  // namespace

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  // Defaults are the CI sweep AND the checked-in baseline's configuration:
  // four sizes spanning 2k..120k gates keep the job under a minute while
  // exercising the >=100k point the scaling story needs.
  const std::string sizes_spec = cli.get("sizes", "2000,8000,30000,120000");
  const auto num_tests =
      static_cast<std::size_t>(cli.get_int_in("tests", 8, 1, 1 << 16));
  const auto fault_cap =
      static_cast<std::size_t>(cli.get_int_in("fault-cap", 2000, 1, 1 << 24));
  const auto sim_cycles =
      static_cast<std::size_t>(cli.get_int_in("cycles", 16, 1, 1 << 16));
  // Distinct report name for the gated long sweep (500k/1M gates), so its
  // baseline lives next to -- not on top of -- the default one.
  const std::string report_name = cli.get("report", "scale");
  g_report_name = report_name;
  constexpr std::uint64_t kSeed = 0x5ca1ab1eULL;

  // On SIGINT/SIGTERM: flush the journal + write the (partial) bench
  // report before exiting with the conventional 128+signum status.
  fbt::serve::GracefulShutdown shutdown([](int sig) {
    std::fprintf(stderr, "[bench_scale] caught signal %d, flushing report\n",
                 sig);
    fbt::obs::write_bench_report(g_report_name, {{"interrupted", "yes"}});
    std::_Exit(fbt::serve::GracefulShutdown::exit_status(sig));
  });

  const std::vector<std::size_t> sizes = parse_sizes(sizes_spec);
  if (sizes.empty()) {
    std::fprintf(stderr, "[bench_scale] no sizes parsed from '%s'\n",
                 sizes_spec.c_str());
    return 2;
  }

  fbt::Timer total;
  fbt::Table table("Scale sweep (" + std::to_string(num_tests) + " tests, " +
                   std::to_string(fault_cap) + "-fault cap)");
  table.set_header({"gates", "faults", "build ms", "parse ms", "sim ms",
                    "grade ms", "footprint MiB", "bytes/gate",
                    "peak RSS MiB"});

  for (const std::size_t gates : sizes) {
    FBT_OBS_PHASE("scale");
    fbt::Timer size_timer;

    fbt::SynthParams params;
    params.name = "scale_g" + std::to_string(gates);
    params.num_inputs = 64;
    params.num_outputs = 32;
    params.num_flops = gates / 10;
    params.num_gates = gates;
    params.seed = kSeed;

    double build_ms = 0.0;
    double parse_ms = 0.0;
    std::uint64_t footprint = 0;

    // Emit the synthetic CUT to .bench text, drop it, and re-enter through
    // the streaming parser: every sweep point then exercises the full
    // parse -> finalize -> bounded-grade path on arena storage (the 1M-gate
    // acceptance path), not just the emit path. The round-trip is id- and
    // structure-preserving, so footprints match the directly synthesized
    // netlist.
    fbt::Timer build_timer;
    std::string bench_text;
    {
      FBT_OBS_PHASE("synthesize");
      const fbt::Netlist built = fbt::generate_synthetic(params);
      bench_text = fbt::write_bench(built);
    }
    build_ms = build_timer.ms();
    fbt::Timer parse_timer;
    fbt::Netlist nl = [&] {
      FBT_OBS_PHASE("parse");
      return fbt::parse_bench(bench_text, params.name);
    }();
    parse_ms = parse_timer.ms();
    bench_text.clear();
    bench_text.shrink_to_fit();
    // Set by the finalize() inside parse_bench just above; snapshot it per
    // size before a later finalize overwrites the shared gauge.
    const double finalize_ms =
        fbt::obs::registry().gauge("netlist.finalize_duration_ms").value();
    const fbt::TransitionFaultList all_faults = [&] {
      FBT_OBS_PHASE("collapse");
      return fbt::TransitionFaultList::collapsed(nl);
    }();

    // Cap the graded fault list so grading stays O(tests * cap) while the
    // structures under measurement stay full-size.
    std::vector<fbt::TransitionFault> sub(
        all_faults.faults().begin(),
        all_faults.faults().begin() +
            static_cast<std::ptrdiff_t>(
                std::min(fault_cap, all_faults.size())));
    const fbt::TransitionFaultList graded =
        fbt::TransitionFaultList::from_faults(std::move(sub));

    fbt::Timer sim_timer;
    fbt::BitSim sim(nl);
    {
      FBT_OBS_PHASE("simulate");
      fbt::Pcg32 rng(kSeed ^ gates);
      for (std::size_t c = 0; c < sim_cycles; ++c) {
        for (const fbt::NodeId pi : nl.inputs()) {
          sim.set_value(pi, rng.next64());
        }
        for (const fbt::NodeId ff : nl.flops()) {
          sim.set_value(ff, rng.next64());
        }
        sim.eval();
      }
    }
    const double sim_ms = sim_timer.ms();

    fbt::Timer grade_timer;
    fbt::BroadsideFaultSim grader(nl);
    const fbt::TestSet tests = random_tests(nl, num_tests, kSeed);
    std::vector<std::uint32_t> counts(graded.size(), 0);
    {
      FBT_OBS_PHASE("grade");
      grader.grade(tests, graded, counts, 1);
    }
    const double grade_ms = grade_timer.ms();

    // Deterministic content bytes of everything this size allocated. The
    // registry keeps the largest record per name, so after the loop the
    // recorded values -- and the report's bytes_per_gate -- belong to the
    // largest size, which is the one worth gating.
    footprint = nl.footprint_bytes() + all_faults.footprint_bytes() +
                sim.footprint_bytes() + grader.footprint_bytes() +
                tests.footprint_bytes();
    FBT_OBS_FOOTPRINT("scale.netlist", nl.footprint_bytes());
    FBT_OBS_FOOTPRINT("scale.fault_list", all_faults.footprint_bytes());
    FBT_OBS_FOOTPRINT("scale.bitsim", sim.footprint_bytes());
    FBT_OBS_FOOTPRINT("scale.fault_sim", grader.footprint_bytes());
    FBT_OBS_FOOTPRINT("scale.tests", tests.footprint_bytes());
    FBT_OBS_GAUGE_SET("flow.num_gates", nl.num_gates());
    FBT_OBS_GAUGE_SET("flow.num_faults", all_faults.size());

    const double walltime_ms = size_timer.ms();
    const std::uint64_t peak_rss = fbt::obs::peak_rss_bytes();
    const double bytes_per_gate =
        static_cast<double>(footprint) / static_cast<double>(nl.num_gates());

    // Dynamic per-size metric names: bypass the macros (they cache one name
    // per call site) and talk to the registry directly.
    const std::string prefix = "scale.g" + std::to_string(gates);
    fbt::obs::registry().gauge(prefix + ".gates").set(
        static_cast<double>(nl.num_gates()));
    fbt::obs::registry().gauge(prefix + ".walltime_ms").set(walltime_ms);
    fbt::obs::registry().gauge(prefix + ".peak_rss_bytes").set(
        static_cast<double>(peak_rss));
    fbt::obs::registry().gauge(prefix + ".footprint_bytes").set(
        static_cast<double>(footprint));
    fbt::obs::registry().gauge(prefix + ".bytes_per_gate").set(bytes_per_gate);
    fbt::obs::registry().gauge(prefix + ".parse_ms").set(parse_ms);
    // The finalize-time / arena-size pair the Memory panel renders per scale
    // point: how long single-pass levelization took and how many bytes the
    // SoA arena (types, interned names, fanin CSR, name index) holds.
    fbt::obs::registry().gauge(prefix + ".netlist_finalize_ms")
        .set(finalize_ms);
    fbt::obs::registry().gauge(prefix + ".netlist_arena_bytes").set(
        static_cast<double>(nl.arena_bytes()));

    table.add_row({std::to_string(nl.num_gates()),
                   std::to_string(all_faults.size()),
                   fbt::Table::num(build_ms, 1), fbt::Table::num(parse_ms, 1),
                   fbt::Table::num(sim_ms, 1), fbt::Table::num(grade_ms, 1),
                   fbt::Table::num(static_cast<double>(footprint) /
                                       (1024.0 * 1024.0),
                                   2),
                   fbt::Table::num(bytes_per_gate, 1),
                   fbt::Table::num(static_cast<double>(peak_rss) /
                                       (1024.0 * 1024.0),
                                   1)});
  }
  table.print();
  std::printf("[bench_scale] %zu sizes done in %s\n", sizes.size(),
              total.pretty().c_str());

  const bool ok = fbt::obs::write_bench_report(
      report_name, {{"sizes", sizes_spec},
                    {"tests", std::to_string(num_tests)},
                    {"fault_cap", std::to_string(fault_cap)},
                    {"cycles", std::to_string(sim_cycles)}});
  return ok ? 0 : 1;
}
