#include "netlist/bench_io.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "circuits/s27.hpp"
#include "mutate.hpp"
#include "sim/bitsim.hpp"
#include "sim/seqsim.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace fbt {
namespace {

TEST(BenchIo, ParsesS27) {
  const Netlist nl = make_s27();
  EXPECT_EQ(nl.name(), "s27");
  EXPECT_EQ(nl.num_inputs(), 4u);
  EXPECT_EQ(nl.num_outputs(), 1u);
  EXPECT_EQ(nl.num_flops(), 3u);
  EXPECT_EQ(nl.num_gates(), 10u);  // 2 NOT + 1 AND + 2 OR + 1 NAND + 4 NOR
  // Spot-check structure: G11 = NOR(G5, G9) and feeds G17 = NOT(G11).
  const NodeId g11 = nl.find("G11");
  const NodeId g17 = nl.find("G17");
  ASSERT_NE(g11, kNoNode);
  ASSERT_NE(g17, kNoNode);
  EXPECT_EQ(nl.type(g11), GateType::kNor);
  EXPECT_EQ(nl.type(g17), GateType::kNot);
  EXPECT_EQ(nl.gate(g17).fanins[0], g11);
  EXPECT_TRUE(nl.is_output(g17));
}

TEST(BenchIo, RoundTripsThroughWriter) {
  const Netlist original = make_s27();
  const std::string text = write_bench(original);
  const Netlist reparsed = parse_bench(text, "s27");
  EXPECT_EQ(reparsed.num_inputs(), original.num_inputs());
  EXPECT_EQ(reparsed.num_outputs(), original.num_outputs());
  EXPECT_EQ(reparsed.num_flops(), original.num_flops());
  EXPECT_EQ(reparsed.num_gates(), original.num_gates());
  for (NodeId id = 0; id < original.size(); ++id) {
    const NodeId other = reparsed.find(original.gate(id).name);
    ASSERT_NE(other, kNoNode) << original.gate(id).name;
    EXPECT_EQ(reparsed.type(other), original.type(id));
    EXPECT_EQ(reparsed.gate(other).fanins.size(),
              original.gate(id).fanins.size());
  }
}

TEST(BenchIo, HandlesForwardReferencesAndComments) {
  const Netlist nl = parse_bench(R"(
# forward reference: y uses z before z is defined
INPUT(a)
OUTPUT(y)
y = NOT(z)   # trailing comment
z = BUF(a)
)",
                                 "fwd");
  EXPECT_EQ(nl.num_gates(), 2u);
  EXPECT_EQ(nl.type(nl.find("y")), GateType::kNot);
}

TEST(BenchIo, RejectsUndefinedNet) {
  EXPECT_THROW(parse_bench("INPUT(a)\nOUTPUT(x)\n", "bad"), Error);
  EXPECT_THROW(parse_bench("y = AND(a, b)\nOUTPUT(y)\n", "bad2"), Error);
}

TEST(BenchIo, RejectsMalformedLines) {
  EXPECT_THROW(parse_bench("INPUT a\n", "m1"), Error);
  EXPECT_THROW(parse_bench("x = AND(a\n", "m2"), Error);
  EXPECT_THROW(parse_bench("FOO(a)\n", "m3"), Error);
}

TEST(BenchIo, RejectsDuplicateDefinition) {
  EXPECT_THROW(parse_bench("INPUT(a)\nINPUT(a)\n", "d1"), Error);
  EXPECT_THROW(
      parse_bench("INPUT(a)\nx = BUF(a)\nx = NOT(a)\nOUTPUT(x)\n", "d2"),
      Error);
}

TEST(BenchIo, AcceptsDffAndBuffAliases) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
OUTPUT(o)
q = DFF(o)
o = BUFF(q2)
q2 = INV(a)
)",
                                 "alias");
  EXPECT_EQ(nl.type(nl.find("o")), GateType::kBuf);
  EXPECT_EQ(nl.type(nl.find("q2")), GateType::kNot);
  EXPECT_EQ(nl.num_flops(), 1u);
}

// Hostile input: every mutant of the s27 text either parses or throws
// fbt::Error, and every mutant that parses simulates identically in the
// scalar and the bit-parallel simulator, node by node.
TEST(BenchIoFuzz, MutantsParseOrThrowAndSimulatorsAgree) {
  constexpr int kMutants = 20000;
  const std::string seed_text(s27_bench_text());
  Pcg32 rng(0x5eed27);
  int parsed = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text =
        testing::mutate(seed_text, rng, "()=,# \n\tGNOTANDRXBUFCS01");
    std::optional<Netlist> nl;
    try {
      nl.emplace(parse_bench(text, "mutant"));
    } catch (const Error&) {
      continue;
    }
    ++parsed;
    std::vector<std::uint8_t> pis(nl->num_inputs());
    std::vector<std::uint8_t> state(nl->num_flops());
    for (auto& v : pis) v = rng.chance(1, 2);
    for (auto& v : state) v = rng.chance(1, 2);
    SeqSim seq(*nl);
    seq.load_state(state);
    seq.step(pis);
    BitSim bits(*nl);
    for (std::size_t k = 0; k < pis.size(); ++k) {
      bits.set_value(nl->inputs()[k], pis[k] ? ~0ULL : 0);
    }
    for (std::size_t k = 0; k < state.size(); ++k) {
      bits.set_value(nl->flops()[k], state[k] ? ~0ULL : 0);
    }
    bits.eval();
    for (NodeId id = 0; id < nl->size(); ++id) {
      ASSERT_EQ(bits.value(id), seq.value(id) ? ~0ULL : 0)
          << "mutant " << i << " node " << nl->node_name(id) << "\n"
          << text;
    }
  }
  EXPECT_GT(parsed, 0);
}

}  // namespace
}  // namespace fbt
