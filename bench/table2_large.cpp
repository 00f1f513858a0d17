// Reproduces dissertation Tables 2.2, 2.4, and 2.6: transition path delay
// fault test generation on the larger circuits, targeting faults from the
// longest paths downward until at least a target number of detected faults
// is reached (the dissertation uses 1000 and spends hours to days per
// circuit; scaled default 60, or until --max-faults faults were targeted,
// flags --target-detected / --max-faults). PODEM solves are capped in
// decisions, so every table but the run times is a function of the flags.
// --circuits takes an exact comma list of circuit names.
#include <string>
#include <vector>

#include "atpg/tpdf_engine.hpp"
#include "circuits/registry.hpp"
#include "paths/path.hpp"
#include "rows.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  const auto target_detected = static_cast<std::size_t>(
      cli.get_int_in("target-detected", 60, 1, 1 << 20));
  const auto batch =
      static_cast<std::size_t>(cli.get_int_in("batch", 150, 1, 1 << 20));
  const auto max_faults =
      static_cast<std::size_t>(cli.get_int_in("max-faults", 900, 1, 1 << 20));
  const std::vector<std::string> circuits = fbt::bench::select_rows(
      cli, "circuits",
      std::vector<std::string>{"s1423", "s5378", "s9234", "s13207"});

  const auto rows = fbt::bench::run_rows(
      fbt::jobs::global_jobs(), circuits.size(), [&](std::size_t i) {
        const fbt::Netlist nl = fbt::load_benchmark(circuits[i]);
        fbt::TpdfEngineConfig cfg;
        cfg.rng_seed = 7;
        cfg.tf_atpg.backtrack_limit = 64;
        cfg.tf_atpg.decision_limit = 150;
        cfg.heuristic.decision_limit = 100;
        cfg.heuristic.backtrack_limit = 150;
        cfg.heuristic_attempts = 1;
        cfg.branch_and_bound.decision_limit = 200;
        cfg.branch_and_bound.backtrack_limit = 1500;
        fbt::TpdfEngine engine(nl, cfg);
        fbt::LongestPathEnumerator longest(nl);

        fbt::TpdfRunReport sum;
        while (sum.detected < target_detected && sum.num_faults < max_faults) {
          std::vector<fbt::PathDelayFault> faults;
          while (faults.size() < 2 * batch) {
            fbt::Path p = longest.next();
            if (p.nodes.empty()) break;
            faults.push_back({p, true});
            faults.push_back({std::move(p), false});
          }
          if (faults.empty()) break;
          const fbt::TpdfRunReport r = engine.run(faults);
          sum.num_faults += r.num_faults;
          sum.detected += r.detected;
          sum.undetectable += r.undetectable;
          sum.aborted += r.aborted;
          sum.detectable_upper_bound += r.detectable_upper_bound;
          sum.detected_fsim += r.detected_fsim;
          sum.detected_heuristic += r.detected_heuristic;
          sum.detected_bnb += r.detected_bnb;
          sum.seconds_tf_atpg += r.seconds_tf_atpg;
          sum.seconds_preprocessing += r.seconds_preprocessing;
          sum.seconds_fsim += r.seconds_fsim;
          sum.seconds_heuristic += r.seconds_heuristic;
          sum.seconds_bnb += r.seconds_bnb;
        }
        return fbt::bench::TpdfRow{sum, std::to_string(sum.num_faults)};
      });
  fbt::bench::print_tpdf_tables(
      2, "at least " + std::to_string(target_detected) + " det. faults",
      circuits, rows);
  fbt::bench::finish_bench(
      "table2_2_4_6",
      {{"target-detected", std::to_string(target_detected)},
       {"batch", std::to_string(batch)},
       {"max-faults", std::to_string(max_faults)},
       {"circuits", cli.get("circuits", "")}});
  return 0;
}
