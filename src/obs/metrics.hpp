// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms for the BIST flow's hot paths (gate evaluations, LFSR cycles,
// PODEM backtracks, faults dropped, ...).
//
// Design constraints:
//  * lock-cheap on the hot path -- updates are relaxed atomic ops on
//    thread-striped slots (Counter), or plain adds batched through
//    LocalCounter for per-cycle call sites; the registry mutex is taken only
//    on first lookup of a name (call sites cache the returned reference, see
//    obs/instrument.hpp);
//  * references returned by the registry stay valid for the process lifetime
//    (reset() zeroes values but never removes instruments);
//  * zero-cost when disabled -- the FBT_OBS_* macros in obs/instrument.hpp
//    compile to no-ops when the build sets FBT_OBS_ENABLED=0. The classes
//    here stay available in both builds so tools and tests can use them
//    directly.
//
// Naming convention for instrument names: `layer.noun_verb`, e.g.
// `sim.seqsim_gates_evaluated`, `bist.lfsr_cycles`, `atpg.podem_backtracks`.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fbt::obs {

/// Monotonically increasing event count.
///
/// Striped to keep the hot path cheap under concurrency: the calibration
/// workers all bump the same sim counters once per simulated cycle, and a
/// single shared atomic turns that into a cache-line ping-pong (~40 ns per
/// add measured on a 4-worker flow_smoke run -- the dominant term in
/// bench_obs_overhead). Each thread is assigned one of kStripes cache-line
/// sized slots at first use and only ever RMWs its own line; value() sums
/// the stripes. Totals stay exact, adds stay relaxed and lock-free; with
/// more threads than stripes some threads share a slot and merely degrade
/// toward the old behaviour.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    stripes_[stripe_index()].value.fetch_add(delta,
                                             std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void reset() {
    for (Stripe& s : stripes_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kStripes = 8;

  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };

  /// Round-robin stripe assignment, one slot per thread, shared by every
  /// Counter (thread T always writes stripe index(T), whichever counter).
  static std::size_t stripe_index() {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t index =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return index;
  }

  Stripe stripes_[kStripes];
};

/// Last-written instantaneous value (coverage percent, bound, ...).
/// Cache-line-aligned so two gauges updated by different threads never
/// false-share (gauges are set at phase granularity, so unlike Counter they
/// need no striping).
class alignas(64) Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts samples <= bounds[i]; one overflow
/// bucket counts the rest. Bounds are fixed at registration.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void record(double sample);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last is overflow).
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

  /// Log-scale (1-2-5 per decade) latency bounds spanning 1 µs .. 10 s in
  /// milliseconds, for quantities with a wide dynamic range (warm cache hits
  /// are microseconds, cold experiment runs are seconds).
  static std::vector<double> log_latency_ms_bounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Single-owner deferred counter for per-cycle hot paths (simulator steps,
/// LFSR clocks): accumulates into a plain member and forwards to the shared
/// Counter in batches, so the steady-state cost is one non-atomic add
/// instead of an atomic RMW per event. Flushes when the pending batch
/// reaches kBatch and at destruction; owners are experiment-scoped objects
/// (sims, TPGs, MISRs), so totals are exact by the time a report is
/// rendered -- only mid-run snapshots can lag by under one batch. Copies
/// and moves inherit the target but start with an empty batch, so pending
/// counts flush exactly once, from the original.
class LocalCounter {
 public:
  explicit LocalCounter(std::string_view name);
  LocalCounter(const LocalCounter& other) noexcept
      : counter_(other.counter_) {}
  LocalCounter& operator=(const LocalCounter& other) noexcept {
    if (this != &other) {
      flush();
      counter_ = other.counter_;
    }
    return *this;
  }
  ~LocalCounter() { flush(); }

  void add(std::uint64_t delta = 1) {
    pending_ += delta;
    if (pending_ >= kBatch) flush();
  }
  void flush() {
    if (pending_ != 0) {
      counter_->add(pending_);
      pending_ = 0;
    }
  }

 private:
  static constexpr std::uint64_t kBatch = 4096;

  Counter* counter_;
  std::uint64_t pending_ = 0;
};

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;  ///< bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Point-in-time copy of every registered instrument, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Owns every instrument. Lookup registers on first use and always returns
/// the same object for a given name thereafter.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Registers with `bounds` on first use; later calls (with any bounds)
  /// return the existing histogram unchanged.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  MetricsSnapshot snapshot() const;

  /// Zeroes every instrument's value. Instruments are never removed, so
  /// references cached by call sites stay valid.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-wide registry used by the FBT_OBS_* instrumentation macros.
MetricsRegistry& registry();

/// Mean of a histogram's samples; 0 when it holds no samples (never NaN --
/// summary values feed straight into JSON).
double histogram_mean(const HistogramSample& h);

/// Approximate quantile (q in [0, 1]) from the bucket counts: linear
/// interpolation inside the bucket holding the target rank, the lower edge
/// of the first bucket taken as 0. 0 when the histogram holds no samples.
///
/// Overflow caveat: when the target rank lands in the overflow bucket the
/// true quantile is unknown (the histogram only knows "> last bound"); the
/// returned value is CLAMPED to the last finite bound and is therefore a
/// lower bound, not an estimate. `clamped`, when non-null, is set to true
/// exactly in that case so consumers (run reports, the serve stats line)
/// can flag an optimistic p99 on long-tail latency histograms instead of
/// silently under-reporting it.
double histogram_quantile(const HistogramSample& h, double q,
                          bool* clamped = nullptr);

}  // namespace fbt::obs
