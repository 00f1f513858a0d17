// Sequence reduction by fault simulation (dissertation §4.3's "reduce the
// number of selected seeds" step, ref [26]).
//
// A reverse-order pass over groups of tests (the flow's groups are its
// multi-segment sequences): walk the groups last to first and keep a group
// only when it detects a fault that no later kept group detects. That is
// reverse-order grading with fault dropping at detect_limit = 1, so the pass
// is one PPSFP grader and one detect-count vector; no per-test detection
// matrix is built. A dropped group detects nothing the kept groups miss, so
// the kept set preserves the original set's coverage.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/broadside_test.hpp"
#include "fault/fault.hpp"

namespace fbt {

namespace jobs {
class JobSystem;
}

/// Drops whole groups (e.g. per-seed segments): group g is kept when it
/// detects a fault that no higher-numbered kept group detects. `group_of[t]`
/// maps test index to group id (0..num_groups-1); each group's tests must be
/// contiguous in `tests` (a set or a row range of one), and a group may be
/// empty. Returns kept group ids,
/// ascending. The three trailing parameters are ignored; they remain only so
/// existing callers that pass them still compile.
std::vector<std::size_t> reduce_groups(const Netlist& netlist,
                                       TestSetView tests,
                                       const TransitionFaultList& faults,
                                       const std::vector<std::size_t>& group_of,
                                       std::size_t num_groups,
                                       std::size_t num_threads = 1,
                                       jobs::JobSystem* jobs = nullptr,
                                       std::uint32_t fault_pack_width = 1);

}  // namespace fbt
