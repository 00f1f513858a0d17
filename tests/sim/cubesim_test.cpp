#include "sim/cubesim.hpp"

#include <gtest/gtest.h>

#include "circuits/s27.hpp"
#include "test_circuits.hpp"

namespace fbt {
namespace {

TEST(CubeSim, AllXStaysX) {
  const Netlist nl = make_s27();
  CubeSim sim(nl);
  sim.clear();
  sim.eval();
  // With every source X, nothing can become binary in s27 (no constants).
  for (const NodeId id : nl.eval_order()) {
    EXPECT_EQ(sim.value(id), Val3::kX) << nl.gate(id).name;
  }
  EXPECT_EQ(sim.specified_next_state_count(), 0u);
}

TEST(CubeSim, ControllingValuePropagates) {
  const Netlist nl = testing::make_fig1_circuit();
  CubeSim sim(nl);
  sim.clear();
  // d = 0 forces e = AND(c, d) = 0 even with c unknown.
  sim.set_value(nl.find("d"), Val3::k0);
  sim.eval();
  EXPECT_EQ(sim.value(nl.find("e")), Val3::k0);
  EXPECT_EQ(sim.value(nl.find("c")), Val3::kX);
}

TEST(CubeSim, DrivesConstants) {
  const Netlist nl = testing::make_const_circuit();
  CubeSim sim(nl);
  sim.clear();
  sim.set_value(nl.find("a"), Val3::k1);
  sim.set_value(nl.find("q"), Val3::k1);
  sim.eval();
  EXPECT_EQ(sim.value(nl.find("one")), Val3::k1);
  EXPECT_EQ(sim.value(nl.find("z")), Val3::k1);
  EXPECT_EQ(sim.value(nl.find("d")), Val3::k1);
  EXPECT_EQ(sim.specified_next_state_count(), 1u);

  // The constant is no controlling value for AND: an X fanin stays X.
  sim.clear();
  sim.eval();
  EXPECT_EQ(sim.value(nl.find("z")), Val3::kX);
}

TEST(CubeSim, SynchronizationCountOnS27) {
  const Netlist nl = make_s27();
  CubeSim sim(nl);
  // G0 = 1 makes G14 = NOT(G0) = 0, G8 = AND(G14, G6) = 0,
  // G10 = NOR(G14, G11) stays X (depends on G11)... count what it settles.
  sim.clear();
  sim.set_value(nl.find("G0"), Val3::k1);
  sim.eval();
  EXPECT_EQ(sim.value(nl.find("G14")), Val3::k0);
  EXPECT_EQ(sim.value(nl.find("G8")), Val3::k0);
  const std::size_t sync_g0_1 = sim.specified_next_state_count();

  sim.clear();
  sim.set_value(nl.find("G0"), Val3::k0);
  sim.eval();
  // G14 = 1 forces G10 = NOR(G14, G11) = 0: synchronizes flop G5's input.
  EXPECT_EQ(sim.value(nl.find("G10")), Val3::k0);
  const std::size_t sync_g0_0 = sim.specified_next_state_count();
  EXPECT_GE(sync_g0_0, 1u);
  // The two values synchronize different numbers of state variables, which
  // is exactly the asymmetry the input cube C captures.
  EXPECT_NE(sync_g0_0, sync_g0_1);
}

}  // namespace
}  // namespace fbt
