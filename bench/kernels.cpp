// Microbenchmarks (google-benchmark) for the simulation kernels that
// dominate every experiment: bit-parallel evaluation, packed (PPSFP) fault
// propagation, scalar sequential stepping, cube simulation, PODEM's
// branch-and-bound, and the on-chip TPG. Also quantifies the bit-parallel vs
// scalar design decision called out in DESIGN.md.
#include <benchmark/benchmark.h>

#include "atpg/necessary.hpp"
#include "atpg/podem.hpp"
#include "bist/lfsr.hpp"
#include "bist/tpg.hpp"
#include "circuits/registry.hpp"
#include "fault/fault_sim.hpp"
#include "paths/path.hpp"
#include "sim/bitsim.hpp"
#include "sim/cubesim.hpp"
#include "sim/packed_faultprop.hpp"
#include "sim/seqsim.hpp"
#include "util/rng.hpp"

namespace {

const fbt::Netlist& circuit() {
  static const fbt::Netlist nl = fbt::load_benchmark("s5378");
  return nl;
}

void BM_BitSimEval64(benchmark::State& state) {
  const fbt::Netlist& nl = circuit();
  fbt::BitSim sim(nl);
  fbt::Pcg32 rng(1);
  for (const fbt::NodeId pi : nl.inputs()) sim.set_value(pi, rng.next64());
  for (const fbt::NodeId ff : nl.flops()) sim.set_value(ff, rng.next64());
  for (auto _ : state) {
    sim.eval();
    benchmark::DoNotOptimize(sim.value(nl.outputs()[0]));
  }
  state.SetItemsProcessed(state.iterations() * 64);  // patterns per eval
}
BENCHMARK(BM_BitSimEval64);

// One trajectory cycle: settle, toggle count, state update. Run on s5378
// and on des_perf, the largest Chapter-4 target.
void seqsim_step(benchmark::State& state, const fbt::Netlist& nl) {
  fbt::SeqSim sim(nl);
  sim.load_reset_state();
  std::vector<std::uint8_t> pi(nl.num_inputs(), 0);
  fbt::Pcg32 rng(2);
  for (auto _ : state) {
    for (auto& b : pi) b = rng.chance(1, 2);
    benchmark::DoNotOptimize(sim.step(pi).toggled_lines);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_SeqSimStep(benchmark::State& state) { seqsim_step(state, circuit()); }
BENCHMARK(BM_SeqSimStep);

void BM_SeqSimStepDesPerf(benchmark::State& state) {
  static const fbt::Netlist nl = fbt::load_benchmark("des_perf");
  seqsim_step(state, nl);
}
BENCHMARK(BM_SeqSimStepDesPerf);

// Chapter 2's branch-and-bound (§2.3.5): a fixed slice of s298's path delay
// faults, each goal set (the transition faults along the path) solved with
// solve(..., true) on top of the path's necessary input assignments after
// reset(), with Table 2.1's budget. A fresh engine per iteration keeps the
// work identical from one iteration to the next. `per_backtrack` is the
// unit cost perfbench reports as atpg.ns_per_backtrack.
void BM_PodemBranchAndBoundS298(benchmark::State& state) {
  struct GoalSet {
    std::vector<fbt::TransitionFault> goals;
    std::vector<fbt::Assignment> inputs;
  };
  static const fbt::Netlist nl = fbt::load_benchmark("s298");
  static const std::vector<GoalSet> sets = [] {
    constexpr std::size_t kSets = 64;
    std::vector<GoalSet> out;
    for (const fbt::Path& p : fbt::enumerate_all_paths(nl, 400).paths) {
      for (const bool rising : {true, false}) {
        if (out.size() == kSets) return out;
        const fbt::PathDelayFault f{p, rising};
        fbt::NecessaryAnalysis na = fbt::necessary_for_path(nl, f, 1);
        if (na.undetectable) continue;
        out.push_back({fbt::transition_faults_along(nl, f),
                       std::move(na.input_assignments)});
      }
    }
    return out;
  }();
  std::uint64_t backtracks = 0;
  for (auto _ : state) {
    fbt::PodemEngine engine(nl, fbt::PodemConfig{.backtrack_limit = 4000});
    for (const GoalSet& set : sets) {
      engine.reset();
      if (!engine.preassign(set.inputs)) continue;
      backtracks += engine.solve(set.goals, true).backtracks;
    }
  }
  state.counters["backtracks"] = benchmark::Counter(
      static_cast<double>(backtracks), benchmark::Counter::kAvgIterations);
  state.counters["per_backtrack"] =
      benchmark::Counter(static_cast<double>(backtracks),
                         benchmark::Counter::kIsRate |
                             benchmark::Counter::kInvert);
}
BENCHMARK(BM_PodemBranchAndBoundS298)->Unit(benchmark::kMillisecond);

// The grader's kernel: one chunk of 64 fault lanes at random sites,
// propagated for one test of a random good-machine block.
void BM_PackedFaultPropagate(benchmark::State& state) {
  constexpr std::size_t kLanes = fbt::PackedFaultProp::kLanes;
  constexpr std::size_t kChunks = 256;
  const fbt::Netlist& nl = circuit();
  fbt::BitSim sim(nl);
  fbt::Pcg32 rng(3);
  for (const fbt::NodeId pi : nl.inputs()) sim.set_value(pi, rng.next64());
  for (const fbt::NodeId ff : nl.flops()) sim.set_value(ff, rng.next64());
  sim.eval();
  fbt::PackedFaultProp prop(nl);
  prop.bind_good_trace(sim.values());
  std::vector<fbt::NodeId> sites(kChunks * kLanes);
  for (fbt::NodeId& site : sites) {
    site = static_cast<fbt::NodeId>(
        rng.below(static_cast<std::uint32_t>(nl.size())));
  }
  std::size_t chunk = 0;
  for (auto _ : state) {
    const std::span<const fbt::NodeId> lanes(sites.data() + chunk * kLanes,
                                             kLanes);
    benchmark::DoNotOptimize(
        prop.propagate(lanes, ~0ULL, static_cast<unsigned>(chunk % 64)));
    chunk = (chunk + 1) % kChunks;
  }
  state.SetItemsProcessed(state.iterations() * kLanes);  // fault lanes
}
BENCHMARK(BM_PackedFaultPropagate);

// Grades 256 random tests against the collapsed fault list with the
// production grader (PPSFP, dropping at limit 1).
void BM_GradeRandomTests(benchmark::State& state) {
  const fbt::Netlist& nl = circuit();
  const fbt::TransitionFaultList faults =
      fbt::TransitionFaultList::collapsed(nl);
  fbt::BroadsideFaultSim fsim(nl);
  fbt::Pcg32 rng(4);
  fbt::TestSet tests;
  for (int i = 0; i < 256; ++i) {
    fbt::BroadsideTest t;
    for (std::size_t k = 0; k < nl.num_flops(); ++k) {
      t.scan_state.push_back(rng.chance(1, 2));
    }
    for (std::size_t k = 0; k < nl.num_inputs(); ++k) {
      t.v1.push_back(rng.chance(1, 2));
      t.v2.push_back(rng.chance(1, 2));
    }
    tests.push_back(std::move(t));
  }
  for (auto _ : state) {
    std::vector<std::uint32_t> detect(faults.size(), 0);
    benchmark::DoNotOptimize(fsim.grade(tests, faults, detect, 1));
  }
  state.SetItemsProcessed(state.iterations() * tests.size());
}
BENCHMARK(BM_GradeRandomTests);

void BM_CubeSimEval(benchmark::State& state) {
  const fbt::Netlist& nl = circuit();
  fbt::CubeSim sim(nl);
  sim.clear();
  sim.set_value(nl.inputs()[0], fbt::Val3::k1);
  for (auto _ : state) {
    sim.eval();
    benchmark::DoNotOptimize(sim.specified_next_state_count());
  }
}
BENCHMARK(BM_CubeSimEval);

void BM_TpgNextVector(benchmark::State& state) {
  const fbt::Netlist& nl = circuit();
  fbt::Tpg tpg(nl, {});
  tpg.reseed(0x1234);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tpg.next_vector());
  }
}
BENCHMARK(BM_TpgNextVector);

void BM_LfsrStep(benchmark::State& state) {
  fbt::Lfsr lfsr(32);
  lfsr.seed(0xcafe);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lfsr.step());
  }
}
BENCHMARK(BM_LfsrStep);

}  // namespace
