// Reproduces dissertation Tables 3.4 and 3.5: how close the recalculated
// ("final") path delays come to the delays under an actual test ("after TG").
//
//   Table 3.4  for one circuit: per selected fault, the traditional STA
//              delay, the delay under the fault's INAs, the delay under a
//              generated test, the original-vs-final difference, and that
//              difference in inverter-rise units (diff_unit).
//   Table 3.5  per circuit: Pct.1 = share of faults whose original delay
//              differs from the after-TG delay; Pct.2 = of those, the share
//              where the final delay is closer to the after-TG delay.
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "atpg/podem.hpp"
#include "circuits/registry.hpp"
#include "fault/fault_sim.hpp"
#include "rows.hpp"
#include "sta/path_selection.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

/// Case assignments of a fully specified broadside test: every primary input
/// in both frames, every state variable in both frames (s2 derived).
std::vector<fbt::Assignment> test_case_values(const fbt::Netlist& nl,
                                              const fbt::BroadsideTest& test) {
  std::vector<fbt::Assignment> values;
  const auto s2 = fbt::second_state(nl, test);
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
    values.push_back({{fbt::Frame::k1, nl.inputs()[i]}, test.v1[i] != 0});
    values.push_back({{fbt::Frame::k2, nl.inputs()[i]}, test.v2[i] != 0});
  }
  for (std::size_t i = 0; i < nl.num_flops(); ++i) {
    values.push_back({{fbt::Frame::k1, nl.flops()[i]},
                      test.scan_state[i] != 0});
    values.push_back({{fbt::Frame::k2, nl.flops()[i]}, s2[i] != 0});
  }
  return values;
}

/// Generates a test detecting the whole path (all its transition faults) and
/// returns the path's delay under that test, or nullopt when ATPG fails.
std::optional<double> after_tg_delay(const fbt::Netlist& nl,
                                     const fbt::DelayLibrary& lib,
                                     const fbt::SelectedPathFault& sel) {
  const auto trs = fbt::transition_faults_along(nl, sel.fault);
  fbt::PodemConfig cfg;
  cfg.backtrack_limit = 2000;
  cfg.decision_limit = 150;
  fbt::PodemEngine engine(nl, cfg);

  // Heuristic first (target the path's transition faults one after another
  // on top of the INAs, §2.3.4-style), then a bounded branch-and-bound.
  for (int attempt = 0; attempt < 3; ++attempt) {
    engine.reset();
    if (!engine.preassign(sel.input_assignments)) return std::nullopt;
    bool all = true;
    for (const fbt::TransitionFault& tf : trs) {
      if (engine.target(tf, /*backtrack_into_earlier=*/false).status !=
          fbt::PodemStatus::kDetected) {
        all = false;
        break;
      }
    }
    if (all) {
      const fbt::BroadsideTest test = engine.extract_test();
      const fbt::TimingGraph graph(nl, lib, test_case_values(nl, test));
      return graph.path_delay(sel.fault);
    }
  }
  engine.reset();
  if (!engine.preassign(sel.input_assignments)) return std::nullopt;
  if (engine.solve(trs, true).status != fbt::PodemStatus::kDetected) {
    return std::nullopt;
  }
  const fbt::BroadsideTest test = engine.extract_test();
  const fbt::TimingGraph graph(nl, lib, test_case_values(nl, test));
  return graph.path_delay(sel.fault);
}

}  // namespace

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  const std::string detail_circuit = cli.get("circuit", "s1423");
  const auto detail_rows =
      static_cast<std::size_t>(cli.get_int_in("rows", 8, 1, 1 << 16));
  const auto per_circuit =
      static_cast<std::size_t>(cli.get_int_in("N", 20, 1, 1 << 16));

  const fbt::DelayLibrary lib = fbt::DelayLibrary::standard_018um();

  // ---- Table 3.4 ---------------------------------------------------------
  {
    const fbt::Netlist nl = fbt::load_benchmark(detail_circuit);
    fbt::PathSelectionConfig cfg;
    cfg.num_target = 4 * detail_rows;
    cfg.initial_pool = 1200;
    cfg.expansion_cap = 16;
    cfg.max_processed = 8 * detail_rows;
    const fbt::PathSelectionResult sel = fbt::select_critical_paths(nl, lib,
                                                                    cfg);
    fbt::Table t34("Table 3.4: Path delay comparison of " + detail_circuit);
    t34.set_header({"Fault", "original", "final", "after TG", "diff",
                    "diff_unit"});
    std::size_t shown = 0;
    std::size_t index = 0;
    for (const fbt::SelectedPathFault& fault : sel.target) {
      ++index;
      if (shown == detail_rows) break;
      const auto tg = after_tg_delay(nl, lib, fault);
      if (!tg.has_value()) continue;
      const double diff = fault.original_delay - fault.final_delay;
      t34.add_row({"fp" + std::to_string(index),
                   fbt::Table::num(fault.original_delay, 3),
                   fbt::Table::num(fault.final_delay, 3),
                   fbt::Table::num(*tg, 3), fbt::Table::num(diff, 3),
                   fbt::Table::num(diff / lib.unit_delay(), 1)});
      ++shown;
    }
    t34.print();
    std::printf("\n");
  }

  // ---- Table 3.5 ---------------------------------------------------------
  const std::vector<std::string> circuits = {"s1423", "s5378", "b11", "b12"};
  const auto results = fbt::bench::run_rows(
      fbt::jobs::global_jobs(), circuits.size(), [&](std::size_t i) {
        const fbt::Netlist nl = fbt::load_benchmark(circuits[i]);
        fbt::PathSelectionConfig cfg;
        cfg.num_target = 4 * per_circuit;
        cfg.initial_pool = 10 * per_circuit;
        cfg.expansion_cap = 16;
        cfg.max_processed = 6 * per_circuit;
        const fbt::PathSelectionResult sel =
            fbt::select_critical_paths(nl, lib, cfg);
        std::size_t with_test = 0;
        std::size_t orig_differs = 0;
        std::size_t final_closer = 0;
        // Scan the whole selection, keeping the faults for which a test was
        // found (the dissertation compares delays only where tests exist).
        for (const fbt::SelectedPathFault& fault : sel.target) {
          if (with_test >= per_circuit) break;
          const auto tg = after_tg_delay(nl, lib, fault);
          if (!tg.has_value()) continue;
          ++with_test;
          if (std::abs(fault.original_delay - *tg) < 1e-9) continue;
          ++orig_differs;
          if (std::abs(fault.final_delay - *tg) <
              std::abs(fault.original_delay - *tg) - 1e-12) {
            ++final_closer;
          }
        }
        const double pct1 =
            with_test == 0 ? 0.0 : 100.0 * orig_differs / with_test;
        const double pct2 =
            orig_differs == 0 ? 0.0 : 100.0 * final_closer / orig_differs;
        return std::vector<std::string>{circuits[i], fbt::Table::num(pct1, 1),
                                        fbt::Table::num(pct2, 1)};
      });
  fbt::Table t35("Table 3.5: Path delay comparison");
  t35.set_header({"Circuit", "Pct. 1 %", "Pct. 2 %"});
  for (const auto& result : results) t35.add_row(result.value);
  t35.print();
  fbt::bench::finish_bench("table3_4_5",
                           {{"circuit", detail_circuit},
                            {"rows", std::to_string(detail_rows)},
                            {"N", std::to_string(per_circuit)}});
  return 0;
}
