// Compatibility name for the retired thread-sharded grader.
//
// Grading runs on one BroadsideFaultSim per loop (DESIGN.md "One grader per
// loop"). ParallelBroadsideFaultSim forwards to one, so code that still names
// it compiles unchanged; the shard count, job system, and pack width
// arguments are ignored.
#pragma once

#include <cstdint>

#include "fault/fault_sim.hpp"

namespace fbt {

namespace jobs {
class JobSystem;
}

class ParallelBroadsideFaultSim {
 public:
  explicit ParallelBroadsideFaultSim(
      const Netlist& netlist, std::size_t /*num_threads*/ = 0,
      jobs::JobSystem* /*jobs*/ = nullptr,
      std::uint32_t /*fault_pack_width*/ = 64)
      : sim_(netlist) {}

  /// BroadsideFaultSim::grade.
  std::size_t grade(TestSetView tests, const TransitionFaultList& faults,
                    std::span<std::uint32_t> detect_count,
                    std::uint32_t detect_limit = 1,
                    GradeProvenance* provenance = nullptr) {
    return sim_.grade(tests, faults, detect_count, detect_limit, provenance);
  }

 private:
  BroadsideFaultSim sim_;
};

}  // namespace fbt
