#include "sim/value.hpp"

#include <string>

#include "util/require.hpp"

namespace fbt {

void throw_source_has_no_function(GateType type) {
  throw Error("eval_gate: " + std::string(gate_type_name(type)) +
              " is a source and has no combinational function");
}

}  // namespace fbt
