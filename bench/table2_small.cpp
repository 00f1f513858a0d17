// Reproduces dissertation Tables 2.1, 2.3, and 2.5: deterministic broadside
// test generation for transition path delay faults on the smaller ISCAS89
// circuits with ALL paths enumerated.
//
//   Table 2.1  per circuit: #faults, detected, undetectable, aborted, time
//   Table 2.3  detected faults credited to each sub-procedure (the column
//              "Prep." is the upper bound on detectable faults left after
//              preprocessing, as in the dissertation)
//   Table 2.5  run time of each sub-procedure
//
// Scaled defaults: the dissertation enumerates every path; path counts here
// are capped with --max-paths (rows whose enumeration was truncated are
// marked '+'). --circuits takes an exact comma list of circuit names.
#include <string>
#include <vector>

#include "atpg/tpdf_engine.hpp"
#include "circuits/registry.hpp"
#include "paths/path.hpp"
#include "rows.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  const auto max_paths =
      static_cast<std::size_t>(cli.get_int_in("max-paths", 400, 1, 1 << 24));
  const std::vector<std::string> circuits = fbt::bench::select_rows(
      cli, "circuits",
      std::vector<std::string>{"s27", "s298", "s344", "s349", "s382", "s386",
                               "s444", "s510", "s526", "s820", "s832",
                               "s953"});

  const auto rows = fbt::bench::run_rows(
      fbt::jobs::global_jobs(), circuits.size(), [&](std::size_t i) {
        const fbt::Netlist nl = fbt::load_benchmark(circuits[i]);
        const fbt::PathEnumeration paths =
            fbt::enumerate_all_paths(nl, max_paths);
        std::vector<fbt::PathDelayFault> faults;
        for (const fbt::Path& p : paths.paths) {
          faults.push_back({p, true});
          faults.push_back({p, false});
        }
        fbt::TpdfEngineConfig cfg;
        cfg.rng_seed = 2024;
        fbt::TpdfEngine engine(nl, cfg);
        const fbt::TpdfRunReport report = engine.run(faults);
        return fbt::bench::TpdfRow{
            report,
            std::to_string(report.num_faults) + (paths.complete ? "" : "+")};
      });
  fbt::bench::print_tpdf_tables(1, "enumerate all paths", circuits, rows);
  fbt::bench::finish_bench("table2_1_3_5",
                           {{"max-paths", std::to_string(max_paths)},
                            {"circuits", cli.get("circuits", "")}});
  return 0;
}
