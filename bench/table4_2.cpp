// Reproduces dissertation Table 4.2: parameters of the chapter-4 benchmark
// circuits -- primary outputs N_PO, primary inputs N_in, specified inputs in
// the primary input cube N_SP (= inserted biasing gates), state variables
// N_SV. Columns N_PO/N_in/N_SV come from the registry (matching the published
// interface counts); N_SP is *computed* by the repeated-synchronization
// analysis of §4.3 on our synthetic equivalents.
#include <iterator>
#include <string>
#include <vector>

#include "bist/input_cube.hpp"
#include "circuits/registry.hpp"
#include "rows.hpp"
#include "util/table.hpp"

namespace {

const char* kTargets[] = {"s35932e",    "s38584e",    "b14",      "b20",
                          "spi",        "wb_dma",     "systemcaes",
                          "systemcdes", "des_area",   "aes_core",
                          "wb_conmax",  "des_perf"};

}  // namespace

int main() {
  const auto results = fbt::bench::run_rows(
      fbt::jobs::global_jobs(), std::size(kTargets), [](std::size_t i) {
        const fbt::Netlist nl = fbt::load_benchmark(kTargets[i]);
        const fbt::InputCube cube = fbt::compute_input_cube(nl);
        return std::vector<std::string>{
            fbt::bench::display(kTargets[i]), std::to_string(nl.num_outputs()),
            std::to_string(nl.num_inputs()),
            std::to_string(cube.specified_count()),
            std::to_string(nl.num_flops())};
      });

  fbt::Table table("Table 4.2: Parameters for benchmark circuits");
  table.set_header({"Circuit", "NPO", "Nin", "Nsp", "NSV"});
  for (const auto& result : results) table.add_row(result.value);
  table.print();
  fbt::bench::finish_bench("table4_2", {});
  return 0;
}
