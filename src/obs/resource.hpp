// Resource telemetry: process RSS sampling and a registry of explicit
// structure footprints. Both are safe to call from any thread:
//
//  * RSS sampling -- peak_rss_bytes() / current_rss_bytes() read the kernel's
//    view of the process (/proc/self/status VmHWM / statm on Linux, getrusage
//    elsewhere; 0 when no source exists). sampled_rss_bytes() is the throttled
//    variant PhaseSpan uses for each span's rss_delta_bytes: it re-reads the
//    kernel at most once per millisecond and returns a cached value
//    otherwise, so hot loops that open thousands of spans do not syscall per
//    span.
//
//  * Footprint registry -- footprints().record("fault_list", bytes) keeps the
//    largest self-reported byte footprint of each big owned structure
//    (netlist and its eval-order CSR, collapsed fault list, test set,
//    packed-sim lane state, journal/trace buffers): a high-water mark, so a
//    report whose rows each record "flow.tests" shows its largest row's, not
//    whichever row finished last. Snapshots land in the run report's
//    "memory" section next to the peak RSS they should explain. Call sites
//    know what they built; nothing hooks operator new.
//
// Instrumented code uses the FBT_OBS_FOOTPRINT macro in obs/instrument.hpp,
// which compiles to a no-op under FBT_OBS=OFF exactly like the metric
// macros. The functions here stay available in both builds so tools and
// tests can use them directly.
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

/// One named structure footprint, e.g. {"fault_list", 106496}.
struct FootprintSample {
  std::string name;
  std::uint64_t bytes = 0;
};

/// Largest self-reported byte footprint per structure name. record() keeps
/// the maximum: a structure that grows reports again and raises its entry,
/// one that shrinks leaves it.
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

/// The run report's "memory" section. bytes_per_gate / bytes_per_fault are
/// derived by collect_run_report from the footprint total and the
/// flow.num_gates / flow.num_faults gauges; 0 when the denominator is unset.
struct MemoryReport {
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t current_rss_bytes = 0;
  std::vector<FootprintSample> footprints;
  double bytes_per_gate = 0.0;
  double bytes_per_fault = 0.0;
};

/// Fills a MemoryReport from the process-wide state (sampler, footprint
/// registry). The derived per-gate/per-fault ratios are left 0;
/// collect_run_report fills them from the metrics snapshot.
MemoryReport collect_memory_report();

}  // namespace fbt::obs
