#include "obs/resource.hpp"

#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/synth.hpp"
#include "fault/fault.hpp"
#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"

namespace fbt::obs {
namespace {

TEST(RssSampler, ReportsPlausibleValuesOnLinux) {
#if defined(__linux__)
  const std::uint64_t current = current_rss_bytes();
  const std::uint64_t peak = peak_rss_bytes();
  // A live test process is at least a megabyte and under a terabyte.
  EXPECT_GT(current, 1u << 20);
  EXPECT_LT(current, 1ull << 40);
  EXPECT_GT(peak, 1u << 20);
  // The high-water mark can never sit below the current residency by more
  // than rounding (VmHWM is page-granular like VmRSS).
  EXPECT_GE(peak + 4096, current);
#else
  SUCCEED() << "no RSS source asserted off-Linux";
#endif
}

TEST(RssSampler, PeakIsMonotoneUnderAllocation) {
  const std::uint64_t before = peak_rss_bytes();
  // Allocate and touch 32 MiB so the pages become resident; peak RSS must
  // not decrease, and on Linux it must grow by roughly the touched size.
  constexpr std::size_t kBytes = 32u << 20;
  auto block = std::make_unique<unsigned char[]>(kBytes);
  std::memset(block.get(), 0xab, kBytes);
  const std::uint64_t after = peak_rss_bytes();
  EXPECT_GE(after, before);
#if defined(__linux__)
  if (before > 0) {
    EXPECT_GE(after, before + kBytes / 2);
  }
#endif
  // Keep the block alive past the sample.
  EXPECT_EQ(block[kBytes - 1], 0xab);
}

TEST(RssSampler, ThrottledSamplerTracksCurrent) {
  const std::uint64_t sampled = sampled_rss_bytes();
#if defined(__linux__)
  EXPECT_GT(sampled, 0u);
#endif
  // Immediately re-sampling returns the cache; it never goes backwards in
  // time or throws, and stays in the same ballpark as current_rss_bytes.
  const std::uint64_t again = sampled_rss_bytes();
  EXPECT_EQ(sampled, again);
}

TEST(FootprintRegistry, RecordsHighWaterMarksAndSorts) {
  FootprintRegistry reg;
  reg.record("netlist", 1000);
  reg.record("fault_list", 300);
  reg.record("netlist", 1200);  // raise, not accumulate
  const std::vector<FootprintSample> snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "fault_list");
  EXPECT_EQ(snap[0].bytes, 300u);
  EXPECT_EQ(snap[1].name, "netlist");
  EXPECT_EQ(snap[1].bytes, 1200u);
  EXPECT_EQ(reg.total_bytes(), 1500u);
  reg.clear();
  EXPECT_TRUE(reg.snapshot().empty());
  EXPECT_EQ(reg.total_bytes(), 0u);
}

// A multi-row report records one name per row; the entry is the largest
// row's whichever order the rows finish in.
TEST(FootprintRegistry, KeepsTheLargestRecordInEitherOrder) {
  FootprintRegistry rising;
  rising.record("flow.tests", 4000);
  rising.record("flow.tests", 9000);
  FootprintRegistry falling;
  falling.record("flow.tests", 9000);
  falling.record("flow.tests", 4000);
  for (const FootprintRegistry* reg : {&rising, &falling}) {
    const std::vector<FootprintSample> snap = reg->snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].bytes, 9000u);
    EXPECT_EQ(reg->total_bytes(), 9000u);
  }
}

TEST(Footprints, StructureFootprintsScaleWithCircuitSize) {
  SynthParams small;
  small.name = "fp_small";
  small.num_inputs = 8;
  small.num_outputs = 4;
  small.num_flops = 16;
  small.num_gates = 200;
  small.seed = 7;
  SynthParams big = small;
  big.name = "fp_big";
  big.num_gates = 2000;
  big.num_flops = 160;

  const Netlist nl_small = generate_synthetic(small);
  const Netlist nl_big = generate_synthetic(big);
  // The arena must cover at least the raw SoA content: one type byte, one
  // output flag, a name offset, and a fanin offset per node.
  EXPECT_GT(nl_small.arena_bytes(),
            nl_small.size() * (2 * sizeof(std::uint32_t) + 2));
  EXPECT_GT(nl_small.footprint_bytes(), nl_small.arena_bytes());
  EXPECT_GT(nl_big.footprint_bytes(), 4 * nl_small.footprint_bytes());
  // The eval CSR absorbed into the netlist holds one Entry per eval-order
  // gate; the footprint must cover that content.
  EXPECT_GE(nl_small.footprint_bytes(),
            nl_small.eval_entries().size() * sizeof(EvalEntry));

  const TransitionFaultList faults_small =
      TransitionFaultList::collapsed(nl_small);
  EXPECT_EQ(faults_small.footprint_bytes(),
            sizeof(TransitionFaultList) +
                faults_small.size() * sizeof(TransitionFault));
}

TEST(MemoryReport, CollectGathersSamplerAndFootprints) {
  footprints().clear();
  footprints().record("test_structure", 4096);
  const MemoryReport report = collect_memory_report();
  ASSERT_EQ(report.footprints.size(), 1u);
  EXPECT_EQ(report.footprints[0].name, "test_structure");
  EXPECT_EQ(report.footprints[0].bytes, 4096u);
  // Derived ratios are collect_run_report's job.
  EXPECT_EQ(report.bytes_per_gate, 0.0);
  EXPECT_EQ(report.bytes_per_fault, 0.0);
#if defined(__linux__)
  EXPECT_GT(report.peak_rss_bytes, 0u);
  EXPECT_GT(report.current_rss_bytes, 0u);
#endif
  footprints().clear();
}

TEST(MemoryReport, RunReportDerivesBytesPerGateFromGauges) {
  footprints().clear();
  footprints().record("netlist", 100000);
  footprints().record("fault_list", 20000);
  registry().gauge("flow.num_gates").set(1000.0);
  registry().gauge("flow.num_faults").set(400.0);
  const RunReportData data = collect_run_report("resource_test", {});
  // collect_run_report also records the journal/trace buffer footprints;
  // bytes_per_gate divides the full registry total by the gauge.
  std::uint64_t total = 0;
  for (const FootprintSample& f : data.memory.footprints) total += f.bytes;
  EXPECT_GE(total, 120000u);
  EXPECT_DOUBLE_EQ(data.memory.bytes_per_gate,
                   static_cast<double>(total) / 1000.0);
  EXPECT_DOUBLE_EQ(data.memory.bytes_per_fault,
                   static_cast<double>(total) / 400.0);
  footprints().clear();
  registry().gauge("flow.num_gates").set(0.0);
  registry().gauge("flow.num_faults").set(0.0);
}

#if !FBT_OBS_ENABLED
TEST(ObsDisabled, FootprintMacroIsANoOp) {
  footprints().clear();
  // Under FBT_OBS=OFF the macro must not evaluate its arguments or touch the
  // registry.
  int evaluations = 0;
  auto count_eval = [&evaluations] {
    ++evaluations;
    return std::uint64_t{4096};
  };
  FBT_OBS_FOOTPRINT("noop", count_eval());
  EXPECT_EQ(evaluations, 0);
  EXPECT_TRUE(footprints().snapshot().empty());
}
#endif

}  // namespace
}  // namespace fbt::obs
