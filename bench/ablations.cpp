// Ablation studies for the design choices DESIGN.md calls out.
//
//  A. Scan test types (§1.3): transition fault coverage of equal-sized
//     random test sets under enhanced-scan / skewed-load / broadside /
//     *functional* broadside application. Reproduces the chapter's narrative:
//     enhanced scan >= skewed-load ~ broadside > functional broadside, with
//     the gap being exactly the faults that need unreachable states.
//  B. Switching bound (§4.4 vs §5.1): SWA-bounded vs signal-transition-
//     pattern-bounded generation -- coverage, tests, and how many generated
//     cycles the stricter bound rejects.
//  C. n-detect (§4.1): built-in generation naturally accumulates n-detect
//     coverage as more tests are applied.
//  D. Seed-set reduction (§4.3): sequences kept before/after the
//     reverse-order reduction at equal coverage.
#include <cstdio>
#include <string>
#include <vector>

#include "bist/embedded.hpp"
#include "bist/functional_bist.hpp"
#include "bist/tpg_variants.hpp"
#include "fault/compaction.hpp"
#include "fault/fault_sim.hpp"
#include "circuits/registry.hpp"
#include "fault/scan_test_types.hpp"
#include "flow/bist_flow.hpp"
#include "netlist/scan.hpp"
#include "sim/seqsim.hpp"
#include "obs/run_report.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

std::size_t coverage(const fbt::Netlist& nl, const fbt::TestSet& tests,
                     const fbt::TransitionFaultList& faults,
                     std::uint32_t n_detect = 1) {
  fbt::BroadsideFaultSim sim(nl);
  std::vector<std::uint32_t> det(faults.size(), 0);
  sim.grade(tests, faults, det, n_detect);
  std::size_t covered = 0;
  for (const std::uint32_t c : det) covered += (c >= n_detect);
  return covered;
}

}  // namespace

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  const std::string target_name = cli.get("target", "s298");
  const auto count =
      static_cast<std::size_t>(cli.get_int_in("tests", 2000, 1, 1 << 20));
  fbt::Timer total;

  const fbt::Netlist nl = fbt::load_benchmark(target_name);
  const fbt::ScanChains scan(nl, {});
  const fbt::TransitionFaultList faults =
      fbt::TransitionFaultList::collapsed(nl);
  fbt::Pcg32 rng(2718);

  // ---- A: scan test types -------------------------------------------------
  {
    fbt::TestSet broadside;
    fbt::TestSet skewed;
    fbt::TestSet enhanced;
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<std::uint8_t> s1;
      std::vector<std::uint8_t> s2;
      std::vector<std::uint8_t> v1;
      std::vector<std::uint8_t> v2;
      std::vector<std::uint8_t> scan_in;
      for (std::size_t k = 0; k < nl.num_flops(); ++k) {
        s1.push_back(rng.chance(1, 2));
        s2.push_back(rng.chance(1, 2));
      }
      for (std::size_t k = 0; k < nl.num_inputs(); ++k) {
        v1.push_back(rng.chance(1, 2));
        v2.push_back(rng.chance(1, 2));
      }
      for (std::size_t k = 0; k < scan.num_chains(); ++k) {
        scan_in.push_back(rng.chance(1, 2));
      }
      broadside.push_back(fbt::BroadsideTest{s1, v1, v2, {}});
      skewed.push_back(
          fbt::make_skewed_load_test(nl, scan, s1, scan_in, v1, v2));
      enhanced.push_back(fbt::make_enhanced_scan_test(s1, s2, v1, v2));
    }
    // Functional broadside tests of the same count via on-chip generation.
    fbt::FunctionalBistConfig cfg;
    cfg.segment_length = 512;
    cfg.bounded = false;
    fbt::FunctionalBistGenerator gen(nl, cfg);
    std::vector<std::uint32_t> det(faults.size(), 0);
    fbt::FunctionalBistResult run = gen.run(faults, det);
    if (run.tests.size() > count) run.tests.truncate(count);

    fbt::Table table("Ablation A: scan test types on " + target_name + " (" +
                     std::to_string(count) + " random tests each)");
    table.set_header({"Test type", "Detected", "FC%"});
    const struct {
      const char* name;
      const fbt::TestSet* tests;
    } rows[] = {{"enhanced scan", &enhanced},
                {"skewed load", &skewed},
                {"broadside (unrestricted)", &broadside},
                {"functional broadside", &run.tests}};
    for (const auto& row : rows) {
      const std::size_t c = coverage(nl, *row.tests, faults);
      table.add_row({row.name, std::to_string(c),
                     fbt::Table::num(100.0 * c / faults.size(), 2)});
    }
    table.print();
    std::printf("\n");
  }

  // ---- B: SWA bound vs signal-transition-pattern bound --------------------
  {
    const fbt::Netlist driver = fbt::load_benchmark("s386");
    fbt::SwaCalibrationConfig cal;
    cal.num_sequences = 10;
    cal.sequence_length = 4000;
    const fbt::FunctionalProfile profile =
        fbt::measure_functional_profile(nl, driver, cal, 16384);

    fbt::Table table("Ablation B: switching bound (target " + target_name +
                     ", driver s386; SWA_func = " +
                     fbt::Table::num(profile.peak_percent, 2) + "%)");
    table.set_header({"Bound", "Sequences", "Seeds", "Tests", "Peak SWA%",
                      "FC%"});
    for (const bool use_pst : {false, true}) {
      fbt::FunctionalBistConfig cfg;
      cfg.segment_length = 512;
      cfg.bounded = true;
      cfg.swa_bound_percent = profile.peak_percent;
      if (use_pst) cfg.pattern_store = &profile.patterns;
      fbt::FunctionalBistGenerator gen(nl, cfg);
      std::vector<std::uint32_t> det(faults.size(), 0);
      const fbt::FunctionalBistResult run = gen.run(faults, det);
      std::size_t covered = 0;
      for (const std::uint32_t c : det) covered += (c >= 1);
      table.add_row({use_pst ? "PST subset (sec. 5.1)" : "SWA (sec. 4.4)",
                     std::to_string(run.sequences.size()),
                     std::to_string(run.num_seeds),
                     std::to_string(run.num_tests),
                     fbt::Table::num(run.peak_swa, 2),
                     fbt::Table::num(100.0 * covered / faults.size(), 2)});
    }
    table.print();
    std::printf("(functional patterns stored: %zu)\n\n",
                profile.patterns.size());
  }

  // ---- C: n-detect accumulation -------------------------------------------
  {
    fbt::FunctionalBistConfig cfg;
    cfg.segment_length = 512;
    cfg.bounded = false;
    cfg.rng_seed = 5;
    fbt::FunctionalBistGenerator gen(nl, cfg);
    std::vector<std::uint32_t> det(faults.size(), 0);
    const fbt::FunctionalBistResult run = gen.run(faults, det);
    fbt::Table table("Ablation C: n-detect coverage of the generated set (" +
                     std::to_string(run.num_tests) + " tests)");
    table.set_header({"n", "faults detected n+ times", "FC%"});
    for (const std::uint32_t n : {1u, 2u, 5u, 10u}) {
      const std::size_t c = coverage(nl, run.tests, faults, n);
      table.add_row({std::to_string(n), std::to_string(c),
                     fbt::Table::num(100.0 * c / faults.size(), 2)});
    }
    table.print();
    std::printf("\n");
  }

  // ---- D: sequence (seed-set) reduction ------------------------------------
  {
    fbt::BistExperimentConfig cfg;
    cfg.target_name = target_name;
    cfg.driver_name = "s386";
    cfg.calibration.num_sequences = 4;
    cfg.calibration.sequence_length = 800;
    cfg.generation.segment_length = 512;
    cfg.generation.rng_seed = 77;
    const fbt::BistExperimentResult r = fbt::run_bist_experiment(cfg);
    fbt::Table table("Ablation D: reverse-order sequence reduction");
    table.set_header({"", "Sequences", "Seeds", "Tests"});
    table.add_row({"constructed",
                   std::to_string(r.sequences_before_reduction),
                   std::to_string(r.seeds_before_reduction), "-"});
    table.add_row({"kept", std::to_string(r.run.sequences.size()),
                   std::to_string(r.run.num_seeds),
                   std::to_string(r.run.num_tests)});
    table.print();
    std::printf("coverage unchanged at %.2f%%\n", r.fault_coverage_percent);
  }

  // ---- E: TPG architectures (sec. 4.2, refs [82]-[87]) ---------------------
  {
    fbt::Table table("Ablation E: TPG architectures (functional application, "
                     "equal cycles)");
    table.set_header({"TPG", "Tests", "Detected", "FC%"});
    const std::size_t cycles = 4096;
    const std::size_t seeds = 4;

    fbt::CubeTpgSource cube(nl, {});
    fbt::WeightedTpg weighted(nl, 32, 4, 2024);
    fbt::BitFlippingTpg flipping(nl, 32, 2024);
    const struct {
      const char* name;
      fbt::PatternSource* source;
    } rows[] = {{"cube-biased (sec. 4.3)", &cube},
                {"weighted, 4 sets [84-87]", &weighted},
                {"bit-flipping [83]", &flipping}};

    for (const auto& row : rows) {
      fbt::TestSet tests;
      fbt::SeqSim sim(nl);
      fbt::Pcg32 seed_rng(31337);
      for (std::size_t s = 0; s < seeds; ++s) {
        row.source->reseed(seed_rng.next() | 1u);
        sim.load_reset_state();
        std::vector<std::uint8_t> launch_state;
        std::vector<std::uint8_t> pending_v1;
        for (std::size_t c = 0; c < cycles / seeds; ++c) {
          auto pi = row.source->next_vector();
          if (c % 2 == 0) {
            launch_state = sim.state();
            pending_v1 = pi;
          }
          sim.step(pi);
          if (c % 2 == 1) {
            tests.push_back(
                fbt::BroadsideTest{launch_state, pending_v1, pi, {}});
          }
        }
      }
      const std::size_t c = coverage(nl, tests, faults);
      table.add_row({row.name, std::to_string(tests.size()),
                     std::to_string(c),
                     fbt::Table::num(100.0 * c / faults.size(), 2)});
    }
    table.print();
    std::printf("\n");
  }

  std::printf("[bench_ablations] done in %s\n", total.pretty().c_str());
  fbt::obs::write_bench_report(
      "ablations",
      {{"target", target_name},
       {"tests", std::to_string(count)}});
  return 0;
}
