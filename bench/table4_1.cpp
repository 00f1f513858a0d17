// Reproduces dissertation Table 4.1: an example of primary input subsequence
// selection. One TPG-generated primary input sequence is applied to a
// constrained target; the per-cycle switching activity is traced, cycles
// whose SWA exceeds SWA_func are marked in the rightmost column, and the
// usable subsequences P_{k,w} between violations are listed -- exactly the
// decomposition the multi-segment construction (Fig. 4.9) automates.
#include <cstdio>
#include <string>
#include <vector>

#include "bist/embedded.hpp"
#include "bist/tpg.hpp"
#include "circuits/registry.hpp"
#include "sim/seqsim.hpp"
#include "obs/instrument.hpp"
#include "obs/run_report.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  const std::string target_name = cli.get("target", "spi");
  const std::string driver_name = cli.get("driver", "wb_dma");
  const auto length =
      static_cast<std::size_t>(cli.get_int_in("length", 48, 1, 1 << 20));

  fbt::Timer total;
  const fbt::Netlist target = fbt::load_benchmark(target_name);
  const fbt::Netlist driver = fbt::load_benchmark(driver_name);

  fbt::SwaCalibrationConfig cal_cfg;
  cal_cfg.num_sequences = 4;
  cal_cfg.sequence_length = 800;
  const double swa_func =
      fbt::measure_swa_func(target, driver, cal_cfg).peak_percent;
  // Trace with a deliberately tighter bound so the example shows violations.
  const double bound = 0.82 * swa_func;

  fbt::Tpg tpg(target, {});
  tpg.reseed(0xf00d);
  fbt::SeqSim sim(target);
  sim.load_reset_state();

  fbt::Table table("Table 4.1: Example of primary input subsequence selection "
                   "(target " + target_name + ", SWAfunc' = " +
                   fbt::Table::num(bound, 2) + "%)");
  table.set_header({"Cycle i", "SWA(i)%", "Violation"});
  std::vector<std::size_t> violations;
  {
    FBT_OBS_PHASE("construct");
    for (std::size_t c = 0; c < length; ++c) {
      const fbt::SeqStep step = sim.step(tpg.next_vector());
      const bool violation = c > 0 && step.switching_percent > bound;
      if (violation) violations.push_back(c);
      table.add_row({std::to_string(c),
                     c == 0 ? "-" : fbt::Table::num(step.switching_percent, 2),
                     violation ? "**" : ""});
    }
  }
  FBT_OBS_COUNTER_ADD("bist.swa_violations", violations.size());
  table.print();

  std::printf("\nUsable subsequences (tests every 2 cycles, ends trimmed to "
              "even length):\n");
  std::size_t start = 0;
  auto emit = [&](std::size_t from, std::size_t to) {
    const std::size_t usable = (to - from) & ~std::size_t{1};
    if (usable >= 2) {
      std::printf("  P_%zu,%zu  -> %zu tests\n", from, from + usable,
                  usable / 2);
      FBT_OBS_COUNTER_ADD("bist.tests_extracted", usable / 2);
    }
  };
  for (const std::size_t v : violations) {
    emit(start, v);
    start = v;  // p(v-1)->p(v) transition excluded; restart at the violation
  }
  emit(start, length);
  std::printf("[bench_table4_1] done in %s\n", total.pretty().c_str());
  fbt::obs::write_bench_report(
      "table4_1",
      {{"target", target_name},
       {"driver", driver_name},
       {"length", std::to_string(length)}});
  return 0;
}
