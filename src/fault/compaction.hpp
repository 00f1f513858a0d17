// Static test-set compaction by fault simulation (dissertation §4.3's seed
// selection reduction, refs [26][89]).
//
// Two classic passes over an already-generated test set:
//  * reverse-order: simulate tests last-to-first, keeping a test only when it
//    detects a fault no kept test detects;
//  * forward-looking [89]: first compute, for every fault, the earliest test
//    that detects it; a test is essential if it is the earliest detector of
//    some fault; remaining faults are then credited to kept tests greedily.
// Both preserve complete coverage of the original set.
//
// Every pass consumes the detection matrix transposed to per-test fault
// lists. Each entry point exists in two forms: a convenience overload that
// simulates the matrix itself (one PPSFP grader), and an overload taking a
// precomputed PerTestFaults so callers running several passes -- or a flow
// that already graded the set -- pay the fault simulation once.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/broadside_test.hpp"
#include "fault/fault.hpp"

namespace fbt {

namespace jobs {
class JobSystem;
}

/// per_test[t] lists the indices of the faults test t detects, ascending.
using PerTestFaults = std::vector<std::vector<std::uint32_t>>;

/// Simulates the full detection matrix (no dropping) with the PPSFP engine
/// and transposes it to per-test fault lists.
PerTestFaults detected_by_test(const Netlist& netlist, const TestSet& tests,
                               const TransitionFaultList& faults);

/// Indices (into the original set) of the kept tests, ascending.
std::vector<std::size_t> reverse_order_compaction(
    const Netlist& netlist, const TestSet& tests,
    const TransitionFaultList& faults);
std::vector<std::size_t> reverse_order_compaction(const PerTestFaults& per_test,
                                                  std::size_t num_faults);

/// Forward-looking static compaction [89]; usually keeps fewer tests than
/// the reverse-order pass.
std::vector<std::size_t> forward_looking_compaction(
    const Netlist& netlist, const TestSet& tests,
    const TransitionFaultList& faults);
std::vector<std::size_t> forward_looking_compaction(
    const PerTestFaults& per_test, std::size_t num_faults);

/// Drops whole groups (e.g. per-seed segments): group g may be dropped when
/// every fault it detects is also detected by a kept group. `group_of[t]`
/// maps test index to group id (0..num_groups-1). Returns kept group ids,
/// ascending. This is the §4.3 "reduce the number of selected seeds" step.
/// The three trailing parameters are ignored; they remain only so existing
/// callers that pass them still compile.
std::vector<std::size_t> reduce_groups(const Netlist& netlist,
                                       const TestSet& tests,
                                       const TransitionFaultList& faults,
                                       const std::vector<std::size_t>& group_of,
                                       std::size_t num_groups,
                                       std::size_t num_threads = 1,
                                       jobs::JobSystem* jobs = nullptr,
                                       std::uint32_t fault_pack_width = 1);
std::vector<std::size_t> reduce_groups(const PerTestFaults& per_test,
                                       std::size_t num_faults,
                                       const std::vector<std::size_t>& group_of,
                                       std::size_t num_groups);

}  // namespace fbt
