// PODEM's simulation is incremental: the good machine re-evaluates only the
// fanout of changed sources (a flip first restores the values from before
// the flipped decision off an undo trail), and each goal's faulty frame is
// the good frame 2 plus the difference cone of the fault site. A
// combinational DAG has one settled value per node for given source values,
// so both must equal a full settle. These tests hold that node by node
// against a full-settle oracle, and pin the search trajectory (statuses,
// decision and backtrack counts, extracted tests) with a hash: one wrong
// value shifts a backtrace or an RNG draw and moves the hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "atpg/podem.hpp"
#include "circuits/registry.hpp"
#include "circuits/synth.hpp"
#include "fault/fault.hpp"
#include "netlist/gate_type.hpp"
#include "obs/metrics.hpp"
#include "sim/value.hpp"

namespace fbt {
namespace {

/// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

using OnDetected =
    std::function<void(PodemEngine&, std::span<const TransitionFault>)>;

/// Drives one engine through the three ways the TPDF engine uses PODEM, on
/// every `stride`-th uncollapsed transition fault: single-fault generate()
/// (TF ATPG), chains of four target(..., false) calls on top of each other
/// (the §2.3.4 heuristic), and solve(..., true) on groups of three faults
/// on top of one pre-assigned input (the §2.3.5 branch-and-bound). Calls `on_detected` with the goals
/// detected under the current assignment after every kDetected outcome, and
/// returns a hash of every outcome and extracted test.
std::uint64_t drive(const Netlist& nl, std::size_t stride,
                    const OnDetected& on_detected) {
  const PodemConfig cfg{
      .backtrack_limit = 100, .decision_limit = 300, .rng_seed = 7};
  PodemEngine engine(nl, cfg);
  const std::vector<TransitionFault> faults =
      TransitionFaultList::uncollapsed(nl).faults();
  Fnv hash;
  const auto record = [&](const PodemOutcome& out,
                          std::span<const TransitionFault> detected) {
    hash.add(static_cast<std::uint64_t>(out.status));
    hash.add(out.decisions);
    hash.add(out.backtracks);
    if (out.status != PodemStatus::kDetected) return;
    on_detected(engine, detected);
    const BroadsideTest test = engine.extract_test();
    for (const auto* bits : {&test.scan_state, &test.v1, &test.v2}) {
      for (const std::uint8_t b : *bits) hash.add(b);
    }
  };

  for (std::size_t i = 0; i < faults.size(); i += stride) {
    record(engine.generate(faults[i]), std::span(&faults[i], 1));
  }
  for (std::size_t i = 0; i + 4 <= faults.size(); i += 4 * stride) {
    engine.reset();
    std::vector<TransitionFault> chain;
    for (std::size_t k = i; k < i + 4; ++k) {
      const PodemOutcome out = engine.target(faults[k], false);
      if (out.status == PodemStatus::kDetected) chain.push_back(faults[k]);
      record(out, chain);
    }
  }
  for (std::size_t i = 0; i + 3 <= faults.size(); i += 3 * stride) {
    engine.reset();
    const Assignment pre{{Frame::k2, nl.inputs()[i % nl.num_inputs()]},
                         (i / 3) % 2 == 1};
    EXPECT_TRUE(engine.preassign(std::span(&pre, 1)));
    const std::span<const TransitionFault> group(faults.data() + i, 3);
    record(engine.solve(group, true), group);
  }
  return hash.h;
}

/// The oracle: both good frames fully settled from `assignment`.
std::vector<Val3> settle_frames(const Netlist& nl,
                                std::span<const Val3> assignment) {
  const std::size_t n = nl.size();
  std::vector<Val3> vals(2 * n, Val3::kX);
  Val3* const g1 = vals.data();
  Val3* const g2 = g1 + n;
  for (const NodeId pi : nl.inputs()) {
    g1[pi] = assignment[pi];
    g2[pi] = assignment[n + pi];
  }
  for (const NodeId ff : nl.flops()) g1[ff] = assignment[ff];
  settle(nl, g1);
  for (const NodeId ff : nl.flops()) g2[ff] = g1[nl.dff_input(ff)];
  settle(nl, g2);
  return vals;
}

/// The oracle: frame 2 fully settled from the good frame-2 sources with
/// `fault`'s site forced to its initial value.
std::vector<Val3> settle_faulty(const Netlist& nl, const Val3* good2,
                                const TransitionFault& fault) {
  std::vector<Val3> out(nl.size(), Val3::kX);
  const Val3 forced = fault.rising ? Val3::k0 : Val3::k1;
  for (const NodeId pi : nl.inputs()) out[pi] = good2[pi];
  for (const NodeId ff : nl.flops()) out[ff] = good2[ff];
  if (!is_combinational(nl.type(fault.line))) out[fault.line] = forced;
  settle(nl, out.data(), [&](NodeId id) {
    if (id == fault.line) out[id] = forced;
  });
  return out;
}

/// First node where `got` and `want` differ, or kNoNode.
NodeId first_mismatch(std::span<const Val3> got, const Val3* want) {
  for (std::size_t id = 0; id < got.size(); ++id) {
    if (got[id] != want[id]) return static_cast<NodeId>(id);
  }
  return kNoNode;
}

/// Holds the engine's good frames, and the faulty frame of each of `sites`,
/// against full settles of assignment().
void expect_oracle(const Netlist& nl, PodemEngine& engine,
                   std::span<const TransitionFault> sites) {
  const std::size_t n = nl.size();
  const std::vector<Val3> want = settle_frames(nl, engine.assignment());
  ASSERT_EQ(first_mismatch(engine.values(Frame::k1), want.data()), kNoNode)
      << nl.name() << " frame 1";
  ASSERT_EQ(first_mismatch(engine.values(Frame::k2), want.data() + n), kNoNode)
      << nl.name() << " frame 2";
  for (const TransitionFault& site : sites) {
    const std::vector<Val3> faulty = settle_faulty(nl, want.data() + n, site);
    ASSERT_EQ(first_mismatch(engine.faulty_frame(site), faulty.data()),
              kNoNode)
        << nl.name() << " " << fault_name(nl, site);
  }
}

// After every detection in all three search modes, the engine's good frames
// equal a full settle node by node, and so does the faulty frame of each goal
// and of four more faults that rotate through the list (their sites may be
// X, which a detected goal's site never is).
TEST(PodemIncremental, ValuesMatchFullSettleOracle) {
  SynthParams p;
  p.name = "podem_oracle";
  p.num_inputs = 8;
  p.num_outputs = 6;
  p.num_flops = 10;
  p.num_gates = 220;
  p.seed = 29;
  struct Case {
    Netlist nl;
    std::size_t stride;
  };
  std::vector<Case> cases;
  cases.push_back({load_benchmark("s27"), 1});
  cases.push_back({load_benchmark("s298"), 1});
  cases.push_back({load_benchmark("s386"), 1});
  cases.push_back({load_benchmark("s1423"), 5});
  cases.push_back({generate_synthetic(p), 1});
  for (const Case& c : cases) {
    const Netlist& nl = c.nl;
    const std::vector<TransitionFault> all =
        TransitionFaultList::uncollapsed(nl).faults();
    std::size_t checked = 0;
    const OnDetected oracle = [&](PodemEngine& engine,
                                  std::span<const TransitionFault> goals) {
      std::vector<TransitionFault> sites(goals.begin(), goals.end());
      for (std::size_t k = 0; k < 4; ++k) {
        sites.push_back(all[(4 * checked + k) % all.size()]);
      }
      expect_oracle(nl, engine, sites);
      ++checked;
    };
    drive(nl, c.stride, oracle);
    EXPECT_GT(checked, 0u) << nl.name();
  }
}

// A flip restores the good frames from the trail to where they stood before
// the flipped decision was simulated. Here the flipped decisions belong to an
// earlier target(..., false), and between it and the flip a failed target()
// unwound its own decisions (only in assignment(), not on the trail) and a
// preassign() added an input. simulate() must pick up both from the sources,
// so the oracle holds after every detection.
TEST(PodemIncremental, FlipBelowTheFloorRestoresAcrossFailuresAndPreassign) {
  for (const char* name : {"s298", "s386", "s1423"}) {
    const Netlist nl = load_benchmark(name);
    const std::vector<TransitionFault> faults =
        TransitionFaultList::uncollapsed(nl).faults();
    PodemEngine engine(
        nl, PodemConfig{
                .backtrack_limit = 100, .decision_limit = 300, .rng_seed = 11});
    std::size_t flipped_earlier = 0;
    for (std::size_t i = 0; i < faults.size(); i += 2) {
      // The second goal sits half the list away, on another line: the two
      // transitions of one line are never detected together.
      const TransitionFault goals[2] = {
          faults[i], faults[(i + faults.size() / 2) % faults.size()]};
      engine.reset();
      if (engine.target(goals[0], false).status != PodemStatus::kDetected) {
        continue;
      }
      expect_oracle(nl, engine, std::span(goals, 1));
      const std::vector<Val3> first(engine.assignment().begin(),
                                    engine.assignment().end());
      // Undetectable under the first goal's decisions: detecting it below
      // takes flipping one of them.
      if (engine.target(goals[1], false).status !=
          PodemStatus::kUndetectable) {
        continue;
      }
      const auto free_pi = std::find_if(
          nl.inputs().begin(), nl.inputs().end(), [&](NodeId pi) {
            return engine.assignment()[nl.size() + pi] == Val3::kX;
          });
      if (free_pi == nl.inputs().end()) continue;
      const Assignment pre{{Frame::k2, *free_pi}, i % 4 == 0};
      ASSERT_TRUE(engine.preassign(std::span(&pre, 1)));
      if (engine.solve(goals, true).status != PodemStatus::kDetected) continue;
      expect_oracle(nl, engine, goals);
      for (std::size_t k = 0; k < first.size(); ++k) {
        const Val3 now = engine.assignment()[k];
        if (first[k] != Val3::kX && now != Val3::kX && now != first[k]) {
          ++flipped_earlier;
          break;
        }
      }
    }
    EXPECT_GT(flipped_earlier, 0u) << name;
  }
}

// reset() empties the trail: no decision survives it to unwind, and a
// trail kept across the thousands of generate() calls of a TF ATPG run would
// grow with every one of them.
TEST(PodemIncremental, ResetEmptiesTheTrail) {
  const Netlist nl = load_benchmark("s298");
  const std::vector<TransitionFault> faults =
      TransitionFaultList::uncollapsed(nl).faults();
  PodemEngine engine(nl, PodemConfig{.backtrack_limit = 100, .rng_seed = 7});
  EXPECT_EQ(engine.trail_size(), 0u);
  std::size_t trailed = 0;
  for (std::size_t i = 0; i < faults.size(); i += 7) {
    engine.generate(faults[i]);
    trailed += engine.trail_size() > 0 ? 1 : 0;
    engine.reset();
    ASSERT_EQ(engine.trail_size(), 0u) << fault_name(nl, faults[i]);
  }
  EXPECT_GT(trailed, 0u);
}

// Outside a goal's difference cone the faulty value is the good one, so an
// observation point there can still differ exactly while its good value is
// X. On the all-X assignment every observation point is X, so every goal is
// pending and the search makes a decision, including the goals whose cone
// reaches no observation point. Dropping the rule (looking at the cone's
// observation points only) declares those impossible outright.
TEST(PodemIncremental, XObservationPointOutsideTheConeKeepsAGoalPending) {
  for (const char* name : {"s27", "s298", "s386"}) {
    const Netlist nl = load_benchmark(name);
    std::vector<std::uint8_t> observed(nl.size(), 0);
    for (const NodeId po : nl.outputs()) observed[po] = 1;
    for (const NodeId ff : nl.flops()) observed[nl.dff_input(ff)] = 1;
    const PodemConfig cfg{.backtrack_limit = 10, .rng_seed = 3};
    PodemEngine all_x(nl, cfg);
    PodemEngine engine(nl, cfg);
    std::size_t unobserved_cones = 0;
    const std::vector<TransitionFault> faults =
        TransitionFaultList::uncollapsed(nl).faults();
    for (const TransitionFault& f : faults) {
      const std::span<const Val3> good = all_x.values(Frame::k2);
      const std::span<const Val3> faulty = all_x.faulty_frame(f);
      bool reaches = false;
      for (std::size_t id = 0; id < nl.size(); ++id) {
        reaches |= observed[id] != 0 && faulty[id] != good[id];
      }
      if (reaches) continue;
      ++unobserved_cones;
      EXPECT_GT(engine.generate(f).decisions, 0u) << fault_name(nl, f);
    }
    EXPECT_GT(unobserved_cones, 0u) << name;
  }
}

#if FBT_OBS_ENABLED
// atpg.podem_gate_evals counts the gates the event-driven simulation
// evaluates. A full-settle engine evaluates every gate of both good frames
// and of the faulty frame on each search iteration; the incremental one
// must do far less.
TEST(PodemIncremental, GateEvalsStayWellBelowFullSettleWork) {
  const Netlist nl = load_benchmark("s298");
  const TransitionFaultList faults = TransitionFaultList::uncollapsed(nl);
  obs::Counter& evals = obs::registry().counter("atpg.podem_gate_evals");
  PodemEngine engine(nl, PodemConfig{.backtrack_limit = 100, .rng_seed = 7});
  const std::uint64_t before = evals.value();
  const std::uint64_t faulty_before =
      obs::registry().counter("atpg.podem_faulty_gate_evals").value();
  std::uint64_t full_settle = 0;
  for (const TransitionFault& tf : faults.faults()) {
    const PodemOutcome out = engine.generate(tf);
    full_settle += 3 * (out.decisions + out.backtracks) * nl.num_gates();
  }
  const std::uint64_t counted = evals.value() - before;
  EXPECT_GT(counted, 0u);
  EXPECT_LT(4 * counted, full_settle);
  // atpg.podem_faulty_gate_evals is the faulty passes' share of it.
  const std::uint64_t faulty =
      obs::registry().counter("atpg.podem_faulty_gate_evals").value() -
      faulty_before;
  EXPECT_GT(faulty, 0u);
  EXPECT_LT(faulty, counted);
}
#endif  // FBT_OBS_ENABLED

// Captured from the full-settle engine this one replaced; any divergence in
// a simulated value moves it.
TEST(PodemIncremental, TrajectoryMatchesFullSettleEngine) {
  const OnDetected none = [](PodemEngine&, std::span<const TransitionFault>) {};
  EXPECT_EQ(drive(load_benchmark("s298"), 1, none), 0x86477b685b1510f0ULL);
  EXPECT_EQ(drive(load_benchmark("s386"), 1, none), 0xc7891a8487b9ea32ULL);
}

}  // namespace
}  // namespace fbt
