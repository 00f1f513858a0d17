#include "fault/compaction.hpp"

#include "fault/fault_sim.hpp"
#include "obs/instrument.hpp"
#include "util/require.hpp"

namespace fbt {

std::vector<std::size_t> reduce_groups(const Netlist& netlist,
                                       TestSetView tests,
                                       const TransitionFaultList& faults,
                                       const std::vector<std::size_t>& group_of,
                                       std::size_t num_groups,
                                       std::size_t /*num_threads*/,
                                       jobs::JobSystem* /*jobs*/,
                                       std::uint32_t /*fault_pack_width*/) {
  FBT_OBS_PHASE("reduce");
  require(group_of.size() == tests.size(), "reduce_groups",
          "group_of must map every test");
  // [begin, end) test span per group; an empty group keeps end == 0.
  std::vector<std::size_t> begin(num_groups, 0);
  std::vector<std::size_t> end(num_groups, 0);
  for (std::size_t t = 0; t < group_of.size(); ++t) {
    const std::size_t g = group_of[t];
    require(g < num_groups, "reduce_groups", "group id out of range");
    if (t == 0 || group_of[t - 1] != g) {
      require(end[g] == 0, "reduce_groups",
              "each group's tests must be contiguous");
      begin[g] = t;
    }
    end[g] = t + 1;
  }

  BroadsideFaultSim sim(netlist);
  std::vector<std::uint32_t> detect_count(faults.size(), 0);
  std::vector<std::size_t> kept;
  for (std::size_t g = num_groups; g-- > 0;) {
    const TestSetView group = tests.subview(begin[g], end[g] - begin[g]);
    if (sim.grade(group, faults, detect_count, 1) > 0) kept.push_back(g);
  }
  return {kept.rbegin(), kept.rend()};
}

}  // namespace fbt
