#include "obs/metrics.hpp"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/instrument.hpp"

namespace fbt::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(LocalCounter, BatchesAndFlushesExactTotals) {
  Counter& shared = registry().counter("test.local_counter");
  shared.reset();
  {
    LocalCounter local("test.local_counter");
    // Small adds stay pending until the batch threshold or destruction.
    local.add(3);
    EXPECT_EQ(shared.value(), 0u);
    // A batch-sized add flushes immediately (threshold is 4096).
    local.add(5000);
    EXPECT_EQ(shared.value(), 5003u);
    local.add(1);
    // A copy inherits the target but not the pending batch: the original
    // still owns (and later flushes) its own count exactly once.
    LocalCounter copy = local;
    copy.add(2);
    copy.flush();
    EXPECT_EQ(shared.value(), 5005u);
  }
  // Destruction flushed the original's pending 1.
  EXPECT_EQ(shared.value(), 5006u);
}

TEST(Gauge, KeepsLastWrittenValue) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(91.25);
  g.set(12.5);
  EXPECT_EQ(g.value(), 12.5);
}

TEST(Histogram, RoutesSamplesToBuckets) {
  Histogram h({1.0, 10.0, 100.0});
  h.record(0.5);    // <= 1
  h.record(1.0);    // <= 1 (bounds are inclusive upper edges)
  h.record(7.0);    // <= 10
  h.record(100.0);  // <= 100
  h.record(5000.0); // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 7.0 + 100.0 + 5000.0);
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(Histogram, SortsAndDeduplicatesBounds) {
  Histogram h({10.0, 1.0, 10.0});
  EXPECT_EQ(h.bounds(), (std::vector<double>{1.0, 10.0}));
  EXPECT_EQ(h.bucket_counts().size(), 3u);
}

TEST(MetricsRegistry, ReturnsSameInstrumentForSameName) {
  MetricsRegistry reg;
  Counter& a = reg.counter("test.same_name");
  Counter& b = reg.counter("test.same_name");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  // Distinct namespaces per instrument kind.
  Gauge& g = reg.gauge("test.same_name");
  g.set(1.5);
  EXPECT_EQ(a.value(), 3u);
}

TEST(MetricsRegistry, HistogramBoundsFixedAtFirstRegistration) {
  MetricsRegistry reg;
  Histogram& first = reg.histogram("test.hist", {1.0, 2.0});
  Histogram& again = reg.histogram("test.hist", {99.0});
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(again.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistry, SnapshotIsSortedByName) {
  MetricsRegistry reg;
  reg.counter("b.second").add(2);
  reg.counter("a.first").add(1);
  reg.gauge("z.gauge").set(7);
  reg.histogram("m.hist", {1.0}).record(0.5);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[0].value, 1u);
  EXPECT_EQ(snap.counters[1].name, "b.second");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 7.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  ASSERT_EQ(snap.histograms[0].bucket_counts.size(), 2u);
  EXPECT_EQ(snap.histograms[0].bucket_counts[0], 1u);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsInstruments) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test.reset");
  c.add(9);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);  // the cached reference stays valid
  EXPECT_EQ(&reg.counter("test.reset"), &c);
}

TEST(MetricsRegistry, ConcurrentUpdatesAreLossless) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      Counter& c = reg.counter("test.concurrent");
      Histogram& h = reg.histogram("test.concurrent_hist", {0.5});
      for (int i = 0; i < kAddsPerThread; ++i) {
        c.add();
        h.record(i % 2 == 0 ? 0.25 : 1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.counter("test.concurrent").value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_EQ(reg.histogram("test.concurrent_hist", {}).count(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(Histogram, LogLatencyBoundsSpanMicrosecondsToSeconds) {
  const std::vector<double> bounds = Histogram::log_latency_ms_bounds();
  ASSERT_FALSE(bounds.empty());
  EXPECT_DOUBLE_EQ(bounds.front(), 0.001);   // 1 us
  EXPECT_DOUBLE_EQ(bounds.back(), 10000.0);  // 10 s
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
    // 1-2-5 spacing: each step grows by at most 2.5x.
    EXPECT_LE(bounds[i] / bounds[i - 1], 2.5 + 1e-9);
  }
}

TEST(HistogramSummary, EmptyHistogramYieldsZeroesNotNan) {
  const HistogramSample empty{"h", {1.0, 10.0}, {0, 0, 0}, 0, 0.0};
  EXPECT_EQ(histogram_mean(empty), 0.0);
  EXPECT_EQ(histogram_quantile(empty, 0.5), 0.0);
  EXPECT_EQ(histogram_quantile(empty, 0.9), 0.0);
  const HistogramSample no_bounds{"h", {}, {5}, 5, 10.0};
  EXPECT_EQ(histogram_quantile(no_bounds, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram_mean(no_bounds), 2.0);
}

TEST(HistogramSummary, QuantileInterpolatesWithinBucket) {
  // 2 samples in (0, 1], 1 in (1, 10], 1 in overflow.
  const HistogramSample h{"h", {1.0, 10.0}, {2, 1, 1}, 4, 0.0};
  EXPECT_DOUBLE_EQ(histogram_mean(h), 0.0);
  // rank 2.0 -> exactly fills the first bucket.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.5), 1.0);
  // rank 1.0 -> halfway through the first bucket.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.25), 0.5);
  // rank 3.0 -> fills the second bucket: its upper edge.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.75), 10.0);
  // rank 4.0 lands in the overflow bucket: pinned to the last finite bound.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 1.0), 10.0);
  // Out-of-range q is clamped.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 2.0), 10.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, -1.0), 0.0);
}

TEST(HistogramSummary, QuantileReportsOverflowClamping) {
  // 2 samples in (0, 1], 1 in (1, 10], 1 in overflow.
  const HistogramSample h{"h", {1.0, 10.0}, {2, 1, 1}, 4, 0.0};
  bool clamped = true;
  // Ranks inside finite buckets must CLEAR the flag, not leave it stale.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.5, &clamped), 1.0);
  EXPECT_FALSE(clamped);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.75, &clamped), 10.0);
  EXPECT_FALSE(clamped);
  // The overflow bucket: the value is only a lower bound, flagged as such.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 1.0, &clamped), 10.0);
  EXPECT_TRUE(clamped);
  // Everything in overflow: any quantile is clamped.
  const HistogramSample all_over{"h", {1.0}, {0, 3}, 3, 0.0};
  EXPECT_DOUBLE_EQ(histogram_quantile(all_over, 0.5, &clamped), 1.0);
  EXPECT_TRUE(clamped);
  // Empty histogram: 0, never flagged.
  const HistogramSample empty{"h", {1.0}, {0, 0}, 0, 0.0};
  EXPECT_EQ(histogram_quantile(empty, 0.99, &clamped), 0.0);
  EXPECT_FALSE(clamped);
}

#if FBT_OBS_ENABLED
TEST(InstrumentMacros, UpdateTheGlobalRegistry) {
  Counter& c = registry().counter("test.macro_counter");
  const std::uint64_t before = c.value();
  FBT_OBS_COUNTER_ADD("test.macro_counter", 5);
  EXPECT_EQ(c.value(), before + 5);
  FBT_OBS_GAUGE_SET("test.macro_gauge", 2.5);
  EXPECT_EQ(registry().gauge("test.macro_gauge").value(), 2.5);
  FBT_OBS_HIST_RECORD_WITH("test.macro_hist", 3, {1, 2, 5});
  EXPECT_GE(registry().histogram("test.macro_hist", {}).count(), 1u);
  FBT_OBS_HIST_RECORD_LOG("test.macro_log_hist", 0.004);
  Histogram& log_hist = registry().histogram("test.macro_log_hist", {});
  EXPECT_EQ(log_hist.bounds(), Histogram::log_latency_ms_bounds());
  EXPECT_GE(log_hist.count(), 1u);
}
#endif

}  // namespace
}  // namespace fbt::obs
