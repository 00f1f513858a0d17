#include "sim/bitsim.hpp"

#include <gtest/gtest.h>

#include "circuits/s27.hpp"
#include "circuits/synth.hpp"
#include "fault/serial_fault_sim.hpp"
#include "sim/seqsim.hpp"
#include "sim/value.hpp"
#include "test_circuits.hpp"
#include "util/rng.hpp"

namespace fbt {
namespace {

TEST(BitSim, EvaluatesS27KnownVector) {
  const Netlist nl = make_s27();
  BitSim sim(nl);
  // All inputs 0, all state 0.
  for (const NodeId pi : nl.inputs()) sim.set_value(pi, 0);
  for (const NodeId ff : nl.flops()) sim.set_value(ff, 0);
  sim.eval();
  // G14 = NOT(G0) = 1; G11 = NOR(G5, G9); G9 = NAND(G16, G15);
  // G8 = AND(G14, G6) = 0; G12 = NOR(G1, G7) = 1; G15 = OR(G12, G8) = 1;
  // G16 = OR(G3, G8) = 0 -> G9 = NAND(0,1) = 1 -> G11 = NOR(0,1) = 0;
  // G17 = NOT(G11) = 1.
  EXPECT_EQ(sim.value(nl.find("G14")), ~0ULL);
  EXPECT_EQ(sim.value(nl.find("G8")), 0ULL);
  EXPECT_EQ(sim.value(nl.find("G12")), ~0ULL);
  EXPECT_EQ(sim.value(nl.find("G9")), ~0ULL);
  EXPECT_EQ(sim.value(nl.find("G11")), 0ULL);
  EXPECT_EQ(sim.value(nl.find("G17")), ~0ULL);
}

// Property: the 64 lanes are independent -- packing 64 random vectors and
// evaluating once agrees with SeqSim evaluating each vector separately,
// also on a net tied to CONST1.
TEST(BitSim, LanesMatchScalarSimulation) {
  SynthParams p;
  p.name = "lanes";
  p.num_inputs = 9;
  p.num_outputs = 5;
  p.num_flops = 7;
  p.num_gates = 160;
  p.seed = 11;
  for (const Netlist& nl :
       {generate_synthetic(p), testing::make_const_circuit()}) {
    Pcg32 rng(123);
    std::vector<std::vector<std::uint8_t>> pis(64);
    std::vector<std::vector<std::uint8_t>> states(64);
    for (int lane = 0; lane < 64; ++lane) {
      for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
        pis[lane].push_back(rng.chance(1, 2));
      }
      for (std::size_t i = 0; i < nl.num_flops(); ++i) {
        states[lane].push_back(rng.chance(1, 2));
      }
    }

    BitSim bits(nl);
    for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
      std::uint64_t w = 0;
      for (int lane = 0; lane < 64; ++lane) {
        if (pis[lane][i]) w |= 1ULL << lane;
      }
      bits.set_value(nl.inputs()[i], w);
    }
    for (std::size_t i = 0; i < nl.num_flops(); ++i) {
      std::uint64_t w = 0;
      for (int lane = 0; lane < 64; ++lane) {
        if (states[lane][i]) w |= 1ULL << lane;
      }
      bits.set_value(nl.flops()[i], w);
    }
    bits.eval();

    SeqSim scalar(nl);
    for (int lane = 0; lane < 64; ++lane) {
      scalar.load_state(states[lane]);
      scalar.step(pis[lane]);
      for (NodeId id = 0; id < nl.size(); ++id) {
        EXPECT_EQ((bits.value(id) >> lane) & 1u, scalar.value(id))
            << nl.name() << " node " << nl.gate(id).name << " lane " << lane;
      }
    }
  }
}

// Property: the serial oracle's event-driven propagation over BitSim's
// words agrees with brute-force re-evaluation under the forced value.
TEST(BitSim, SerialFaultPropMatchesBruteForce) {
  SynthParams p;
  p.name = "prop";
  p.num_inputs = 8;
  p.num_outputs = 6;
  p.num_flops = 5;
  p.num_gates = 140;
  p.seed = 21;
  const Netlist nl = generate_synthetic(p);

  Pcg32 rng(55);
  BitSim sim(nl);
  testing::SerialFaultProp prop(nl);
  for (int trial = 0; trial < 40; ++trial) {
    for (const NodeId pi : nl.inputs()) sim.set_value(pi, rng.next64());
    for (const NodeId ff : nl.flops()) sim.set_value(ff, rng.next64());
    sim.eval();

    const NodeId site = static_cast<NodeId>(rng.below(
        static_cast<std::uint32_t>(nl.size())));
    if (nl.type(site) == GateType::kConst0 ||
        nl.type(site) == GateType::kConst1) {
      continue;
    }
    const std::uint64_t forced = rng.next64();
    const std::uint64_t detect = prop.propagate(sim.values(), site, forced);

    // Brute force: re-evaluate a fresh simulator with the site forced.
    BitSim ref(nl);
    for (const NodeId pi : nl.inputs()) ref.set_value(pi, sim.value(pi));
    for (const NodeId ff : nl.flops()) ref.set_value(ff, sim.value(ff));
    ref.eval();
    std::vector<std::uint64_t> forced_vals(nl.size());
    for (NodeId id = 0; id < nl.size(); ++id) forced_vals[id] = ref.value(id);
    for (NodeId id = 0; id < nl.size(); ++id) {
      if (nl.type(id) == GateType::kConst0) forced_vals[id] = 0;
      if (nl.type(id) == GateType::kConst1) forced_vals[id] = ~0ULL;
    }
    forced_vals[site] = forced;
    for (const NodeId id : nl.eval_order()) {
      if (id == site) continue;
      const auto fanins = nl.fanins(id);
      forced_vals[id] = eval_gate<std::uint64_t>(
          nl.type(id), fanins.size(),
          [&](std::size_t k) { return forced_vals[fanins[k]]; });
    }
    std::uint64_t expected = 0;
    for (const NodeId po : nl.outputs()) {
      expected |= forced_vals[po] ^ sim.value(po);
    }
    for (const NodeId ff : nl.flops()) {
      const NodeId d = nl.dff_input(ff);
      expected |= forced_vals[d] ^ sim.value(d);
    }
    EXPECT_EQ(detect, expected) << "site " << nl.gate(site).name;
    // The fault-free values must be untouched by propagation.
    for (NodeId id = 0; id < nl.size(); ++id) {
      EXPECT_EQ(sim.value(id), ref.value(id));
    }
  }
}

TEST(BitSim, NextStateReadsFlopDInputs) {
  const Netlist nl = make_s27();
  BitSim sim(nl);
  for (const NodeId pi : nl.inputs()) sim.set_value(pi, 0);
  for (const NodeId ff : nl.flops()) sim.set_value(ff, 0);
  sim.eval();
  std::vector<std::uint64_t> ns(nl.num_flops());
  sim.next_state(ns);
  for (std::size_t i = 0; i < nl.num_flops(); ++i) {
    EXPECT_EQ(ns[i], sim.value(nl.dff_input(nl.flops()[i])));
  }
}

}  // namespace
}  // namespace fbt
