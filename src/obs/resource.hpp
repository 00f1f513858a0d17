// Resource telemetry: process RSS sampling, allocation accounting charged to
// the innermost open phase, and a registry of explicit structure footprints.
//
// Three facilities, all safe to call from any thread:
//
//  * RSS sampling -- peak_rss_bytes() / current_rss_bytes() read the kernel's
//    view of the process (/proc/self/status VmHWM / statm on Linux, getrusage
//    elsewhere; 0 when no source exists). sampled_rss_bytes() is the throttled
//    variant PhaseSpan uses: it re-reads the kernel at most once per
//    millisecond and returns a cached value otherwise, so hot loops that open
//    thousands of spans do not syscall per span.
//
//  * Allocation accounting -- charge_allocation(bytes) adds to process-wide
//    byte/count totals *and* to the innermost open phase span on the calling
//    thread (obs/phase.hpp), so the phase tree shows which phase paid for
//    which structures. Charges are explicit (call sites know what they built);
//    nothing hooks operator new.
//
//  * Footprint registry -- footprints().record("fault_list", bytes) keeps the
//    latest self-reported byte footprint of each big owned structure (netlist
//    and its eval-order CSR, collapsed fault list, detect matrices, packed-sim lane
//    state, journal/trace buffers). Snapshots land in the run report's
//    "memory" section next to the RSS numbers they should explain.
//
// Instrumented code uses the FBT_OBS_ALLOC_CHARGE / FBT_OBS_FOOTPRINT macros
// in obs/instrument.hpp, which compile to no-ops under FBT_OBS=OFF exactly
// like the metric macros. The functions here stay available in both builds so
// tools and tests can use them directly.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fbt::obs {

/// Peak resident set size of this process in bytes (high-water mark).
/// 0 when the platform exposes no source.
std::uint64_t peak_rss_bytes();

/// Current resident set size in bytes. 0 when unavailable.
std::uint64_t current_rss_bytes();

/// Throttled current_rss_bytes(): re-reads the kernel at most once per
/// millisecond, returning the cached value in between. Monotone only as the
/// kernel is (RSS can shrink); cheap enough for span open/close.
std::uint64_t sampled_rss_bytes();

/// Process-wide explicit-allocation totals (see charge_allocation).
struct AllocationTotals {
  std::uint64_t bytes = 0;
  std::uint64_t count = 0;
};

/// Charges `bytes` (as `count` allocations) to the process totals and to the
/// innermost open phase span on this thread, when one is open.
void charge_allocation(std::uint64_t bytes, std::uint64_t count = 1);

AllocationTotals allocation_totals();

/// Zeroes the process totals (tests and fresh tool runs).
void reset_allocation_totals();

/// One named structure footprint, e.g. {"fault_list", 106496}.
struct FootprintSample {
  std::string name;
  std::uint64_t bytes = 0;
};

/// Latest self-reported byte footprint per structure name. record()
/// overwrites: a structure that grows reports again and replaces its entry.
class FootprintRegistry {
 public:
  void record(std::string_view name, std::uint64_t bytes);

  /// Copy of every entry, sorted by name (stable report rendering).
  std::vector<FootprintSample> snapshot() const;

  /// Sum over all entries.
  std::uint64_t total_bytes() const;

  /// Drops every entry (tests and fresh tool runs).
  void clear();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t, std::less<>> entries_;
};

/// The process-wide registry used by the FBT_OBS_FOOTPRINT macro.
FootprintRegistry& footprints();

/// The run report's "memory" section (schema v3). bytes_per_gate /
/// bytes_per_fault are derived by collect_run_report from the footprint
/// total and the flow.num_gates / flow.num_faults gauges; 0 when the
/// denominator is unset.
struct MemoryReport {
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t current_rss_bytes = 0;
  std::uint64_t allocated_bytes = 0;
  std::uint64_t allocation_count = 0;
  std::vector<FootprintSample> footprints;
  double bytes_per_gate = 0.0;
  double bytes_per_fault = 0.0;
};

/// Fills a MemoryReport from the process-wide state (sampler, allocation
/// totals, footprint registry). The derived per-gate/per-fault ratios are
/// left 0; collect_run_report fills them from the metrics snapshot.
MemoryReport collect_memory_report();

}  // namespace fbt::obs
