// Reproduces dissertation Tables 3.2 and 3.3.
//   Table 3.2  Target_PDF size before ("original") and after ("final") the
//              INA-based delay recalculation and expansion, for a sweep of
//              requested selection sizes N.
//   Table 3.3  number of path delay faults unique to the INA-based
//              selection's top-N versus the traditional top-N.
// Scaled defaults: the dissertation sweeps N = 100..1000 on 8 circuits; here
// N defaults to {25, 50, 100, 150} (flag --Ns) on four circuits (--circuits
// takes an exact comma list of them).
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "circuits/registry.hpp"
#include "rows.hpp"
#include "sta/path_selection.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  std::vector<std::size_t> sizes;
  for (const std::string& n :
       fbt::bench::split_commas(cli.get("Ns", "25,50,100,150"))) {
    sizes.push_back(static_cast<std::size_t>(std::stoul(n)));
  }
  const std::vector<std::string> circuits = fbt::bench::select_rows(
      cli, "circuits",
      std::vector<std::string>{"s1423", "s5378", "b11", "b12"});

  const auto results = fbt::bench::run_rows(
      fbt::jobs::global_jobs(), circuits.size(), [&](std::size_t i) {
        const std::string& name = circuits[i];
        const fbt::Netlist nl = fbt::load_benchmark(name);
        std::vector<std::string> original_row{name, "original"};
        std::vector<std::string> final_row{"", "final"};
        std::vector<std::string> diff_row{name};
        for (const std::size_t n : sizes) {
          fbt::PathSelectionConfig cfg;
          cfg.num_target = n;
          cfg.initial_pool = 10 * n;
          cfg.expansion_cap = 16;
          cfg.max_processed = 3 * n;
          const fbt::PathSelectionResult result = fbt::select_critical_paths(
              nl, fbt::DelayLibrary::standard_018um(), cfg);
          original_row.push_back(std::to_string(result.original_size));
          final_row.push_back(std::to_string(result.final_size));

          // Table 3.3: top-N of the final (INA-ranked) selection vs. the
          // traditional top-N (the first original_size faults, which were
          // ranked by traditional delay). Count faults unique to the
          // INA-based set.
          std::set<std::string> traditional;
          std::size_t taken = 0;
          // Reconstruct the traditional top-N: the non-newly-added faults in
          // original-delay order.
          std::vector<const fbt::SelectedPathFault*> trad_sorted;
          for (const auto& sel : result.target) {
            if (!sel.newly_added) trad_sorted.push_back(&sel);
          }
          std::sort(trad_sorted.begin(), trad_sorted.end(),
                    [](const auto* a, const auto* b) {
                      return a->original_delay > b->original_delay;
                    });
          for (const auto* sel : trad_sorted) {
            if (taken++ >= n) break;
            traditional.insert(fbt::path_fault_key(sel->fault));
          }
          std::size_t unique_to_new = 0;
          std::size_t counted = 0;
          // result.target is already sorted by final delay.
          for (const auto& sel : result.target) {
            if (counted++ >= n) break;
            if (!traditional.count(fbt::path_fault_key(sel.fault))) {
              ++unique_to_new;
            }
          }
          diff_row.push_back(std::to_string(unique_to_new));
        }
        // Two Table 3.2 rows and one Table 3.3 row.
        return std::vector<std::vector<std::string>>{original_row, final_row,
                                                     diff_row};
      });

  std::vector<std::string> header{"Circuit", "set"};
  for (const std::size_t n : sizes) header.push_back(std::to_string(n));
  fbt::Table t32("Table 3.2: Path group size comparison");
  t32.set_header(header);
  std::vector<std::string> header33{"Circuit"};
  for (const std::size_t n : sizes) header33.push_back(std::to_string(n));
  fbt::Table t33("Table 3.3: Number of different path delay faults");
  t33.set_header(header33);
  for (const auto& result : results) {
    t32.add_row(result.value[0]);
    t32.add_row(result.value[1]);
    t33.add_row(result.value[2]);
  }
  t32.print();
  std::printf("\n");
  t33.print();
  fbt::bench::finish_bench("table3_2_3",
                           {{"Ns", cli.get("Ns", "25,50,100,150")},
                            {"circuits", cli.get("circuits", "")}});
  return 0;
}
