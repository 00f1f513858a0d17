// Retired flattened-fanin view.
//
// Every settle loop walks the eval-order CSR that Netlist::finalize() builds
// and the netlist owns (eval_entries() / eval_fanin_ids()), so nothing reads
// a FlatFanins any more. The type remains only so perfbench/perfbench.cpp,
// which still builds one and passes it to measure_swa_func and
// FunctionalBistGenerator (both ignore it), compiles unchanged.
#pragma once

#include <cstdint>

#include "netlist/netlist.hpp"

namespace fbt {

class FlatFanins {
 public:
  explicit FlatFanins(const Netlist& /*netlist*/) {}

  std::uint64_t footprint_bytes() const { return sizeof(*this); }
};

}  // namespace fbt
