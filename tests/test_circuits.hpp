// Shared hand-built circuits for unit tests, including the dissertation's
// Chapter-1 didactic figures.
#pragma once

#include "netlist/bench_io.hpp"
#include "netlist/netlist.hpp"

namespace fbt::testing {

/// Fig. 1.1 / 1.3: inputs a, b, d; c = OR(a, b); e = AND(c, d); output e.
/// The test <abd = 001, 101> detects the slow-to-rise fault at c.
inline Netlist make_fig1_circuit() {
  return parse_bench(R"(
INPUT(a)
INPUT(b)
INPUT(d)
OUTPUT(e)
c = OR(a, b)
e = AND(c, d)
)",
                     "fig1");
}

/// Fig. 1.2 / 1.4 / 1.5: inputs a, b, d, f; c = OR(a, b); e = AND(c, d);
/// g = OR(e, f); output g. Path a-c-e-g with a rising transition at a.
inline Netlist make_fig2_circuit() {
  return parse_bench(R"(
INPUT(a)
INPUT(b)
INPUT(d)
INPUT(f)
OUTPUT(g)
c = OR(a, b)
e = AND(c, d)
g = OR(e, f)
)",
                     "fig2");
}

/// Reconvergence with opposite inversion polarities (the Fig. 1.6/1.7
/// phenomenon): d fans out to f = NOT(d) and g = OR(d, e); h = AND(f, g).
/// A rising transition at d produces fault effects of opposite polarity that
/// cancel at h, so the transition fault at d is not detected even though
/// both branch paths are statically sensitized.
inline Netlist make_reconvergent_circuit() {
  return parse_bench(R"(
INPUT(d)
INPUT(e)
OUTPUT(h)
f = NOT(d)
g = OR(d, e)
h = AND(f, g)
)",
                     "reconv");
}

/// Minimal sequential circuit: one input, one flop, one output.
/// nxt = XOR(in, ff); out = NOT(ff).
inline Netlist make_toggle_circuit() {
  return parse_bench(R"(
INPUT(in)
OUTPUT(out)
ff = DFF(nxt)
nxt = XOR(in, ff)
out = NOT(ff)
)",
                     "toggle");
}

/// The Fig. 2.1 circuit (the preprocessing example): the path c-d-e with a
/// rising transition at c carries the transition faults c:0->1, d:1->0,
/// e:0->1, and e is the data input of the flop whose output is c. Detecting
/// e:0->1 needs e = 0 under the first pattern, which under a broadside test
/// implies c = 0 under the second pattern -- conflicting with the c = 1
/// second-pattern requirement of c:0->1. Reconstructed as:
/// c = DFF(e); d = NOT(c); e = NAND(b, d).
inline Netlist make_fig21_circuit() {
  return parse_bench(R"(
INPUT(a)
INPUT(b)
OUTPUT(e)
c = DFF(e)
d = NOT(c)
e = NAND(b, d)
)",
                     "fig21");
}

/// A constant-tied circuit: one = CONST1; z = AND(a, one); q = DFF(d) with
/// d = AND(q, one). With a = q = 1, z = 1 and the next state is 1 -- only
/// if the simulator drives the constant.
inline Netlist make_const_circuit() {
  return parse_bench(R"(
INPUT(a)
OUTPUT(z)
q = DFF(d)
one = CONST1()
z = AND(a, one)
d = AND(q, one)
)",
                     "const1");
}

}  // namespace fbt::testing
