// Logic value domains and the one gate evaluator shared by the simulators,
// the fault graders, ATPG and STA.
//
// eval_gate<V> is the only definition of a gate's forward Boolean function.
// It is templated on the value domain:
//   std::uint8_t   one 0/1 value (scalar trajectory simulation),
//   std::uint64_t  64 patterns or fault lanes packed one per bit,
//   Val3           three-valued 0/1/X (cube simulation, PODEM, case analysis).
// settle<V> drives the constants and evaluates the netlist's eval-order CSR
// with it; gate_truth_table / eval_truth_table are the branchless <=2-input
// form of the same function for the 64-bit domain.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "netlist/gate_type.hpp"
#include "netlist/netlist.hpp"

namespace fbt {

/// Three-valued logic (0, 1, unknown).
enum class Val3 : std::uint8_t { k0 = 0, k1 = 1, kX = 2 };

inline Val3 not3(Val3 a) {
  if (a == Val3::kX) return Val3::kX;
  return a == Val3::k0 ? Val3::k1 : Val3::k0;
}

/// Logic 0 and 1 of a value domain (1 is all-ones for packed words).
template <class V> inline constexpr V kLogic0 = V{0};
template <class V> inline constexpr V kLogic1 = V{1};
template <> inline constexpr std::uint64_t kLogic1<std::uint64_t> = ~0ULL;
template <> inline constexpr Val3 kLogic0<Val3> = Val3::k0;
template <> inline constexpr Val3 kLogic1<Val3> = Val3::k1;

template <class V>
inline V logic_not(V v) {
  if constexpr (std::is_same_v<V, Val3>) {
    return not3(v);
  } else {
    return static_cast<V>(v ^ kLogic1<V>);
  }
}

/// Throws fbt::Error: inputs and flip-flops have no combinational function.
[[noreturn]] void throw_source_has_no_function(GateType type);

namespace detail {
// Three-valued AND (ctrl = 0) or OR (ctrl = 1): a controlling fanin decides
// the output outright, otherwise any X fanin leaves it X.
template <class Fanin>
inline Val3 reduce3(Val3 ctrl, std::size_t count, Fanin& fanin) {
  bool any_x = false;
  for (std::size_t k = 0; k < count; ++k) {
    const Val3 v = fanin(k);
    if (v == ctrl) return ctrl;
    any_x |= v == Val3::kX;
  }
  return any_x ? Val3::kX : not3(ctrl);
}
}  // namespace detail

/// Evaluates one gate. `fanin(k)` yields the value of fanin k < count.
/// Val3 follows the X rules: a controlling fanin decides AND/OR outright,
/// otherwise any X fanin leaves the output X.
///
/// BUF and NOT evaluate as one-input AND and NAND, CONST1 and CONST0 as
/// zero-input AND and NAND (an empty AND is 1). With four switch targets the
/// compiler dispatches by bit tests instead of an indirect jump and inlines
/// the whole evaluator into settle() (measured in DESIGN.md, "Gate
/// evaluation").
template <class V, class Fanin>
inline V eval_gate(GateType type, std::size_t count, Fanin&& fanin) {
  V acc;
  bool invert;
  switch (type) {
    case GateType::kConst0:
    case GateType::kConst1:
    case GateType::kBuf:
    case GateType::kNot:
    case GateType::kAnd:
    case GateType::kNand:
      if constexpr (std::is_same_v<V, Val3>) {
        acc = detail::reduce3(Val3::k0, count, fanin);
      } else {
        acc = kLogic1<V>;
        for (std::size_t k = 0; k < count; ++k) acc &= fanin(k);
      }
      invert = type == GateType::kConst0 || type == GateType::kNot ||
               type == GateType::kNand;
      break;
    case GateType::kOr:
    case GateType::kNor:
      if constexpr (std::is_same_v<V, Val3>) {
        acc = detail::reduce3(Val3::k1, count, fanin);
      } else {
        acc = kLogic0<V>;
        for (std::size_t k = 0; k < count; ++k) acc |= fanin(k);
      }
      invert = type == GateType::kNor;
      break;
    case GateType::kXor:
    case GateType::kXnor:
      acc = kLogic0<V>;
      for (std::size_t k = 0; k < count; ++k) {
        const V v = fanin(k);
        if constexpr (std::is_same_v<V, Val3>) {
          if (v == Val3::kX) return Val3::kX;
          if (v == Val3::k1) acc = not3(acc);
        } else {
          acc ^= v;
        }
      }
      invert = type == GateType::kXnor;
      break;
    default:
      throw_source_has_no_function(type);
  }
  return invert ? logic_not(acc) : acc;
}

/// Truth table of a 1- or 2-input combinational gate: bit (a << 1) | b is the
/// output for fanin(0) = a and fanin(count - 1) = b. A one-input gate reads
/// its fanin as both a and b, so only the a == b entries are reachable.
/// Agrees with eval_gate for every combinational type at count 1 and 2.
constexpr std::uint8_t gate_truth_table(GateType type, std::size_t count) {
  switch (type) {
    case GateType::kBuf:
    case GateType::kAnd:  return 0b1000;
    case GateType::kNot:
    case GateType::kNand: return 0b0111;
    case GateType::kOr:   return count == 1 ? 0b1000 : 0b1110;
    case GateType::kNor:  return count == 1 ? 0b0111 : 0b0001;
    case GateType::kXor:  return count == 1 ? 0b1000 : 0b0110;
    case GateType::kXnor: return count == 1 ? 0b0111 : 0b1001;
    default:              return 0;  // sources and constants: not gates
  }
}

namespace detail {
// gate_truth_table() tabulated by [count - 1][type] for settle's 64-bit
// domain (measured in DESIGN.md, "Gate evaluation").
inline constexpr auto kTruthTables = [] {
  constexpr auto kTypes = static_cast<std::size_t>(GateType::kConst1) + 1;
  std::array<std::array<std::uint8_t, kTypes>, 2> tables{};
  for (std::size_t t = 0; t < kTypes; ++t) {
    tables[0][t] = gate_truth_table(static_cast<GateType>(t), 1);
    tables[1][t] = gate_truth_table(static_cast<GateType>(t), 2);
  }
  return tables;
}();
}  // namespace detail

/// Branchless 4-entry mux: evaluates truth table `tt` on 64 packed (a, b)
/// pairs.
inline std::uint64_t eval_truth_table(std::uint8_t tt, std::uint64_t a,
                                      std::uint64_t b) {
  const std::uint64_t t0 = 0 - static_cast<std::uint64_t>(tt & 1);
  const std::uint64_t t1 = 0 - static_cast<std::uint64_t>((tt >> 1) & 1);
  const std::uint64_t t2 = 0 - static_cast<std::uint64_t>((tt >> 2) & 1);
  const std::uint64_t t3 = 0 - static_cast<std::uint64_t>((tt >> 3) & 1);
  const std::uint64_t lo = t0 ^ ((t0 ^ t1) & b);  // a = 0 row
  const std::uint64_t hi = t2 ^ ((t2 ^ t3) & b);  // a = 1 row
  return lo ^ ((lo ^ hi) & a);
}

/// Settles the combinational logic of `netlist` over `values` (one V per
/// node): drives the constant nodes, then evaluates every gate of the
/// eval-order CSR from the source values already in place. `after_gate(id)`
/// runs right after gate `id` is evaluated and may overwrite its value
/// (forced fault sites, case analysis). The 64-bit domain evaluates 1- and
/// 2-input gates through their tabulated truth table, which measured faster
/// than eval_gate there (DESIGN.md, "Gate evaluation").
template <class V, class AfterGate>
inline void settle(const Netlist& netlist, V* values, AfterGate&& after_gate) {
  for (const NodeId id : netlist.const0_nodes()) values[id] = kLogic0<V>;
  for (const NodeId id : netlist.const1_nodes()) values[id] = kLogic1<V>;
  const NodeId* const ids = netlist.eval_fanin_ids();
  for (const EvalEntry& e : netlist.eval_entries()) {
    const NodeId* const fan = ids + e.first;
    if constexpr (std::is_same_v<V, std::uint64_t>) {
      if (e.count <= 2) {
        const std::uint8_t tt =
            detail::kTruthTables[e.count - 1][static_cast<std::size_t>(e.type)];
        values[e.node] = eval_truth_table(tt,
                                          values[fan[0]],
                                          values[fan[e.count - 1]]);
        after_gate(e.node);
        continue;
      }
    }
    values[e.node] = eval_gate<V>(
        e.type, e.count, [values, fan](std::size_t k) { return values[fan[k]]; });
    after_gate(e.node);
  }
}

template <class V>
inline void settle(const Netlist& netlist, V* values) {
  settle(netlist, values, [](NodeId) {});
}

}  // namespace fbt
