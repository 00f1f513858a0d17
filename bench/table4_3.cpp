// Reproduces dissertation Table 4.3: built-in generation of functional
// broadside tests considering primary input constraints.
//
// For every target circuit three rows are produced: the unconstrained
// "buffers" driving block and two constrained driving blocks (chosen as in
// the dissertation where the registry permits: the driving block's output
// count must cover the target's input count). Each row reports the scan
// length Lsc, the number of multi-segment primary input sequences N_multi,
// the largest segment count N_segmax, the longest segment L_max, the
// calibrated bound SWA_func, the number of LFSR seeds, the number of applied
// tests, the peak switching activity during application, the transition
// fault coverage, and the hardware cost of the on-chip generator.
//
// Scaled defaults (dissertation: L = 6000-18000, 30 calibration sequences of
// 30000 cycles): --L (even, 2..65536), --calib-seqs (1..1024), --calib-len
// (2..2^20) to adjust; a value outside exits with status 2. --targets takes
// an exact comma list of printed circuit names (e.g. s35932,des_perf).
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

// Target + driving-block pairs following Table 4.3 (buffers row first; the
// dissertation's des_area/des_area self-pairing is replaced by s35932e since
// des_area has fewer outputs than inputs).
const Row kRows[] = {
    {"s35932e", "buffers"},   {"s35932e", "aes_core"}, {"s35932e", "spi"},
    {"s38584e", "buffers"},   {"s38584e", "des_area"}, {"s38584e", "wb_conmax"},
    {"b14", "buffers"},       {"b14", "systemcdes"},   {"b14", "aes_core"},
    {"b20", "buffers"},       {"b20", "aes_core"},     {"b20", "spi"},
    {"spi", "buffers"},       {"spi", "wb_conmax"},    {"spi", "wb_dma"},
    {"wb_dma", "buffers"},    {"wb_dma", "wb_conmax"}, {"wb_dma", "s35932e"},
    {"systemcaes", "buffers"},{"systemcaes", "wb_conmax"},
    {"systemcaes", "s35932e"},
    {"systemcdes", "buffers"},{"systemcdes", "wb_dma"},
    {"systemcdes", "s38584e"},
    {"des_area", "buffers"},  {"des_area", "wb_conmax"},
    {"des_area", "s35932e"},
    {"aes_core", "buffers"},  {"aes_core", "wb_conmax"},
    {"aes_core", "s35932e"},
    {"wb_conmax", "buffers"}, {"wb_conmax", "wb_conmax"},
    {"des_perf", "buffers"},  {"des_perf", "wb_conmax"},
    {"des_perf", "s38584e"},
};

}  // namespace

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  const std::size_t L = fbt::bench::segment_length_flag(cli);
  const auto calib_seqs =
      static_cast<std::size_t>(cli.get_int_in("calib-seqs", 6, 1, 1024));
  const auto calib_len =
      static_cast<std::size_t>(cli.get_int_in("calib-len", 1500, 2, 1 << 20));
  const std::vector<Row> rows = fbt::bench::select_rows(
      cli, "targets", kRows,
      [](const Row& row) { return fbt::bench::display(row.target); });

  const auto results = fbt::bench::run_rows(
      fbt::jobs::global_jobs(), rows.size(), [&](std::size_t i) {
        const Row& row = rows[i];
        const fbt::BistExperimentResult r =
            fbt::run_bist_experiment(fbt::bench::table4_row_config(
                row.target, row.driver, L, calib_seqs, calib_len));
        const bool first_of_target =
            i == 0 || std::string(rows[i - 1].target) != row.target;
        return std::vector<std::string>{
            first_of_target ? fbt::bench::display(row.target) : "",
            first_of_target ? std::to_string(r.scan.longest_length()) : "",
            fbt::bench::display(row.driver),
            std::to_string(r.run.sequences.size()),
            std::to_string(r.run.nseg_max), std::to_string(r.run.lmax),
            fbt::Table::num(r.swa_func, 2), std::to_string(r.run.num_seeds),
            std::to_string(r.run.num_tests),
            fbt::Table::num(r.run.peak_swa, 2),
            fbt::Table::num(r.fault_coverage_percent, 2),
            std::to_string(static_cast<long long>(r.hw_area)),
            fbt::Table::num(r.overhead_percent, 2)};
      });

  fbt::Table table(
      "Table 4.3: Built-in test generation considering primary input "
      "constraints");
  table.set_header({"Circuit", "Lsc", "Driving block", "Nmulti", "Nsegmax",
                    "Lmax", "SWAfunc%", "Nseeds", "Ntests", "SWA%", "FC%",
                    "HW Area", "Over.%"});
  for (const auto& result : results) table.add_row(result.value);
  table.print();
  fbt::bench::finish_bench("table4_3",
                           {{"L", std::to_string(L)},
                            {"calib-seqs", std::to_string(calib_seqs)},
                            {"calib-len", std::to_string(calib_len)},
                            {"targets", cli.get("targets", "")}});
  return 0;
}
