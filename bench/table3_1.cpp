// Reproduces dissertation Table 3.1: the path-selection walk-through.
// The N most critical potentially detectable path delay faults of one
// circuit are selected by traditional STA, each fault's delay is then
// recalculated under its own input necessary assignments, and faults that
// become at-least-as-critical under those INAs join the set ("new paths").
#include <cstdio>
#include <string>

#include "circuits/registry.hpp"
#include "sta/path_selection.hpp"
#include "obs/run_report.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  const std::string circuit = cli.get("circuit", "s13207");
  const auto n = static_cast<std::size_t>(cli.get_int_in("N", 16, 1, 1 << 16));
  const auto pool =
      static_cast<std::size_t>(cli.get_int_in("M", 1500, 1, 1 << 20));

  fbt::Timer total;
  const fbt::Netlist nl = fbt::load_benchmark(circuit);
  fbt::PathSelectionConfig cfg;
  cfg.num_target = n;
  cfg.initial_pool = pool;
  cfg.expansion_cap = 24;
  cfg.max_processed = 4 * n;
  const fbt::PathSelectionResult result =
      fbt::select_critical_paths(nl, fbt::DelayLibrary::standard_018um(), cfg);

  fbt::Table table("Table 3.1: Path selection in " + circuit + " (N = " +
                   std::to_string(n) + ")");
  table.set_header({"Path delay fault", "original (ns)", "final (ns)",
                    "newly identified"});
  std::size_t index = 1;
  for (const fbt::SelectedPathFault& sel : result.target) {
    table.add_row({"fp" + std::to_string(index++),
                   fbt::Table::num(sel.original_delay, 3),
                   fbt::Table::num(sel.final_delay, 3),
                   sel.newly_added ? "yes" : "-"});
  }
  table.print();
  std::printf(
      "initial Target_PDF: %zu faults; after recalculation/expansion: %zu; "
      "undetectable dropped: %zu\n",
      result.original_size, result.final_size, result.undetectable_dropped);
  std::printf("[bench_table3_1] done in %s\n", total.pretty().c_str());
  fbt::obs::write_bench_report(
      "table3_1",
      {{"circuit", circuit},
       {"N", std::to_string(n)},
       {"M", std::to_string(pool)}});
  return 0;
}
