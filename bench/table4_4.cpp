// Reproduces dissertation Table 4.4: built-in test generation with state
// holding. For targets whose functional-broadside-only coverage is low, the
// optional DFT phase of §4.5 selects non-overlapping sets of state variables
// (binary-tree procedure, Fig. 4.12), holds each set every 2^h = 4 cycles
// during additional on-chip generation, and reports the coverage recovered,
// the aggregate sequence statistics, and the (slightly) larger hardware.
// --L and --tree-height scale the run (an odd or out-of-range L, a negative
// height, or one above fbt::kMaxHoldTreeHeight, exits with status 2);
// --targets takes an exact comma list of printed circuit names.
#include <string>
#include <vector>

#include "flow/bist_flow.hpp"
#include "rows.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

struct Row {
  const char* target;
  const char* driver;
};

// The lowest-coverage cases of our Table 4.3 run (the dissertation applies
// holding wherever functional-only coverage stayed below 90%; our synthetic
// equivalents are easier for random patterns, so the residual gaps are
// smaller but sit on the same rows -- the strongly constrained ones).
const Row kRows[] = {
    {"des_area", "s35932e"},  {"des_area", "wb_conmax"},
    {"systemcaes", "s35932e"}, {"b14", "aes_core"},
    {"s35932e", "spi"},        {"b14", "systemcdes"},
};

}  // namespace

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  const std::size_t L = fbt::bench::segment_length_flag(cli);
  const auto height = static_cast<unsigned>(
      cli.get_int_in("tree-height", 3, 0, fbt::kMaxHoldTreeHeight));
  const std::vector<Row> rows = fbt::bench::select_rows(
      cli, "targets", kRows,
      [](const Row& row) { return fbt::bench::display(row.target); });

  const auto results = fbt::bench::run_rows(
      fbt::jobs::global_jobs(), rows.size(), [&](std::size_t i) {
        const Row& row = rows[i];
        // Phase 1: the constrained functional-broadside run of Table 4.3.
        fbt::BistExperimentResult base = fbt::run_bist_experiment(
            fbt::bench::table4_row_config(row.target, row.driver, L));

        // Phase 2: state holding (h = 2 -> hold every 4 cycles, §4.6).
        fbt::HoldSelectionConfig hold;
        hold.tree_height = height;  // dissertation: 6; scaled default 3
        hold.hold_period_log2 = 2;
        hold.eval = base.generation;
        hold.eval.max_segment_failures = 1;  // R = 1 for Det evaluation
        hold.eval.max_sequence_failures = 1; // Q = 1
        hold.commit = base.generation;       // R = 3, Q = 3 for committed sets
        const fbt::HoldExperimentResult r =
            fbt::run_hold_experiment(base, hold, /*rng_seed=*/0x401d);
        return std::vector<std::string>{
            fbt::bench::display(row.target), fbt::bench::display(row.driver),
            std::to_string(r.hold.selected.size()),
            std::to_string(r.hold.total_held_flops),
            std::to_string(r.hold.num_sequences),
            std::to_string(r.hold.nseg_max), std::to_string(r.hold.lmax),
            std::to_string(r.hold.num_seeds),
            std::to_string(r.hold.num_tests),
            fbt::Table::num(r.hold.peak_swa, 2),
            fbt::Table::num(r.coverage_improvement_percent, 2),
            fbt::Table::num(r.final_coverage_percent, 2),
            std::to_string(static_cast<long long>(r.hw_area)),
            fbt::Table::num(r.overhead_percent, 2)};
      });

  fbt::Table table("Table 4.4: Built-in test generation with state holding");
  table.set_header({"Circuit", "Driving block", "Nh", "Nbits", "Nmulti",
                    "Nsegmax", "Lmax", "Nseeds", "Ntests", "SWA%",
                    "FC Imp.%", "Final FC%", "HW Area", "Over.%"});
  for (const auto& result : results) table.add_row(result.value);
  table.print();
  fbt::bench::finish_bench("table4_4",
                           {{"L", std::to_string(L)},
                            {"tree-height", std::to_string(height)},
                            {"targets", cli.get("targets", "")}});
  return 0;
}
