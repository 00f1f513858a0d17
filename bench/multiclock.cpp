// Extension bench (dissertation §5.1 future work): built-in functional test
// generation for a circuit with two clock domains.
//
// The slow domain ticks once every `divider` fast cycles. Functional
// stimulus is applied with both clocks at their own rates (reachable states
// of the composite machine), multi-cycle tests are cut out of the
// trajectory, and coverage is reported per fault span class (intra-fast /
// intra-slow / crossing). A naive single-clock treatment (pretending every
// flop is fast) is graded on the same faults for contrast: it overtests --
// its "detections" of slow-domain faults rely on state transitions the
// composite machine cannot perform.
#include <cstdio>
#include <string>
#include <vector>

#include "bist/tpg.hpp"
#include "circuits/registry.hpp"
#include "fault/fault_sim.hpp"
#include "multiclock/multiclock_sim.hpp"
#include "sim/seqsim.hpp"
#include "obs/run_report.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  const std::string name = cli.get("circuit", "s298");
  const auto divider =
      static_cast<unsigned>(cli.get_int_in("divider", 4, 2, 1 << 10));
  const auto slow_pct =
      static_cast<unsigned>(cli.get_int_in("slow-percent", 40, 0, 100));
  const auto cycles =
      static_cast<std::size_t>(cli.get_int_in("cycles", 3000, 1, 1 << 24));
  fbt::Timer total;

  const fbt::Netlist nl = fbt::load_benchmark(name);
  const fbt::ClockDomains domains =
      fbt::ClockDomains::split_by_index(nl, slow_pct, divider);
  const fbt::TransitionFaultList faults =
      fbt::TransitionFaultList::collapsed(nl);

  std::printf("circuit %s: %zu flops (%zu slow, divider %u)\n", name.c_str(),
              nl.num_flops(), domains.num_slow(), divider);

  // Functional stimulus.
  fbt::Tpg tpg(nl, {});
  tpg.reseed(0xc10c);
  std::vector<std::vector<std::uint8_t>> vectors;
  for (std::size_t c = 0; c < cycles; ++c) {
    vectors.push_back(tpg.next_vector());
  }
  const std::vector<std::uint8_t> reset(nl.num_flops(), 0);

  // Proper multi-clock testing: multi-cycle tests on the composite machine.
  const auto tests =
      fbt::extract_multicycle_tests(domains, reset, vectors, 2 * divider);
  fbt::MultiClockFaultSim fsim(domains);
  std::vector<std::uint32_t> det(faults.size(), 0);
  fsim.grade(tests, faults, det);

  // Naive single-clock treatment of the same circuit (every flop fast).
  std::vector<std::uint32_t> naive(faults.size(), 0);
  {
    fbt::BroadsideFaultSim bsim(nl);
    fbt::SeqSim sim(nl);
    sim.load_reset_state();
    fbt::TestSet broadside;
    std::vector<std::uint8_t> launch;
    for (std::size_t c = 0; c + 1 < vectors.size(); c += 2) {
      launch = sim.state();
      sim.step(vectors[c]);
      broadside.push_back(fbt::BroadsideTest{launch, vectors[c],
                                             vectors[c + 1], {}});
      sim.step(vectors[c + 1]);
    }
    bsim.grade(broadside, faults, naive, 1);
  }

  fbt::Table table("Multi-clock extension: coverage by fault span (" +
                   std::to_string(tests.size()) + " multi-cycle tests)");
  table.set_header({"Fault span", "Faults", "Detected (multi-clock)", "FC%",
                    "\"Detected\" (naive 1-clock)"});
  const char* span_names[] = {"intra-fast", "intra-slow", "crossing"};
  std::size_t count[3] = {0, 0, 0};
  std::size_t hit[3] = {0, 0, 0};
  std::size_t naive_hit[3] = {0, 0, 0};
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const auto span =
        static_cast<std::size_t>(domains.classify(faults.fault(f).line));
    ++count[span];
    if (det[f] >= 1) ++hit[span];
    if (naive[f] >= 1) ++naive_hit[span];
  }
  for (int s = 0; s < 3; ++s) {
    table.add_row({span_names[s], std::to_string(count[s]),
                   std::to_string(hit[s]),
                   count[s] == 0
                       ? "-"
                       : fbt::Table::num(100.0 * hit[s] / count[s], 1),
                   std::to_string(naive_hit[s])});
  }
  table.print();
  std::printf(
      "Naive single-clock grading credits detections that rely on state\n"
      "transitions the composite machine cannot make (overtesting); the\n"
      "multi-clock columns are the trustworthy ones.\n");
  std::printf("[bench_multiclock] done in %s\n", total.pretty().c_str());
  fbt::obs::write_bench_report(
      "multiclock",
      {{"circuit", name},
       {"divider", std::to_string(divider)},
       {"slow-percent", std::to_string(slow_pct)},
       {"cycles", std::to_string(cycles)}});
  return 0;
}
