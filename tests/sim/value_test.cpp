#include "sim/value.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace fbt {
namespace {

const GateType kCombTypes[] = {GateType::kBuf,  GateType::kNot,
                               GateType::kAnd,  GateType::kNand,
                               GateType::kOr,   GateType::kNor,
                               GateType::kXor,  GateType::kXnor};

template <class V>
V eval_on(GateType type, const std::vector<V>& in) {
  return eval_gate<V>(type, in.size(), [&](std::size_t k) { return in[k]; });
}

class GateEvalConsistency : public ::testing::TestWithParam<GateType> {};

// Property: the scalar, bit-parallel and three-valued domains of eval_gate
// agree on every binary input combination up to 4 fanins.
TEST_P(GateEvalConsistency, BinaryDomainsAgree) {
  const GateType type = GetParam();
  const std::size_t max_fanin =
      (type == GateType::kBuf || type == GateType::kNot) ? 1 : 4;
  const std::size_t min_fanin = max_fanin == 1 ? 1 : 2;
  for (std::size_t n = min_fanin; n <= max_fanin; ++n) {
    for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
      std::vector<std::uint8_t> in2;
      std::vector<std::uint64_t> in64;
      std::vector<Val3> in3;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t b = (bits >> i) & 1u;
        in2.push_back(b);
        in64.push_back(b ? ~0ULL : 0);
        in3.push_back(b ? Val3::k1 : Val3::k0);
      }
      const std::uint8_t r2 = eval_on(type, in2);
      const std::uint64_t r64 = eval_on(type, in64);
      const Val3 r3 = eval_on(type, in3);
      EXPECT_TRUE(r2 == 0 || r2 == 1) << gate_type_name(type);
      EXPECT_EQ(r64, r2 ? ~0ULL : 0) << gate_type_name(type) << " bits=" << bits;
      EXPECT_EQ(r3, r2 ? Val3::k1 : Val3::k0)
          << gate_type_name(type) << " bits=" << bits;
    }
  }
}

// Property: the truth-table mux is the same function as eval_gate on 64
// packed patterns, for every combinational type at one and two fanins (a
// one-input gate reads its fanin as both mux operands).
TEST_P(GateEvalConsistency, TruthTableMatchesEvalGate) {
  const GateType type = GetParam();
  Pcg32 rng(7);
  for (std::size_t n = 1; n <= 2; ++n) {
    const std::uint8_t tt = gate_truth_table(type, n);
    for (int trial = 0; trial < 64; ++trial) {
      const std::vector<std::uint64_t> in = n == 1
          ? std::vector<std::uint64_t>{rng.next64()}
          : std::vector<std::uint64_t>{rng.next64(), rng.next64()};
      EXPECT_EQ(eval_truth_table(tt, in.front(), in.back()),
                eval_on(type, in))
          << gate_type_name(type) << " n=" << n;
    }
  }
}

// Property: three-valued evaluation is a sound abstraction -- if the result
// with some inputs X is binary, then every completion of the X inputs yields
// that same binary value.
TEST_P(GateEvalConsistency, XAbstractionIsSound) {
  const GateType type = GetParam();
  if (type == GateType::kBuf || type == GateType::kNot) return;
  Pcg32 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = rng.range(2, 4);
    std::vector<Val3> in3;
    std::vector<std::size_t> x_positions;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t r = rng.below(3);
      in3.push_back(static_cast<Val3>(r));
      if (in3.back() == Val3::kX) x_positions.push_back(i);
    }
    const Val3 abstract = eval_on(type, in3);
    if (abstract == Val3::kX) continue;
    for (std::uint32_t fill = 0; fill < (1u << x_positions.size()); ++fill) {
      std::vector<std::uint8_t> in2;
      std::size_t xi = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (in3[i] == Val3::kX) {
          in2.push_back((fill >> xi++) & 1u);
        } else {
          in2.push_back(in3[i] == Val3::k1 ? 1 : 0);
        }
      }
      EXPECT_EQ(eval_on(type, in2), abstract == Val3::k1 ? 1 : 0)
          << gate_type_name(type);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllGateTypes, GateEvalConsistency,
                         ::testing::ValuesIn(kCombTypes),
                         [](const auto& info) {
                           return std::string(gate_type_name(info.param));
                         });

TEST(Value, ConstantsEvaluate) {
  EXPECT_EQ(eval_on<std::uint8_t>(GateType::kConst0, {}), 0);
  EXPECT_EQ(eval_on<std::uint8_t>(GateType::kConst1, {}), 1);
  EXPECT_EQ(eval_on<std::uint64_t>(GateType::kConst1, {}), ~0ULL);
  EXPECT_EQ(eval_on<Val3>(GateType::kConst0, {}), Val3::k0);
}

TEST(Value, SourcesHaveNoFunction) {
  EXPECT_THROW(eval_on<std::uint8_t>(GateType::kInput, {}), Error);
  EXPECT_THROW(eval_on<std::uint64_t>(GateType::kDff, {}), Error);
  EXPECT_THROW(eval_on<Val3>(GateType::kDff, {}), Error);
}

TEST(Value, Not3) {
  EXPECT_EQ(not3(Val3::k0), Val3::k1);
  EXPECT_EQ(not3(Val3::k1), Val3::k0);
  EXPECT_EQ(not3(Val3::kX), Val3::kX);
}

}  // namespace
}  // namespace fbt
