#include "obs/metrics.hpp"

#include <algorithm>

namespace fbt::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::record(double sample) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), sample);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::log_latency_ms_bounds() {
  return {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1,
          2,     5,     10,    20,   50,   100,  200, 500, 1000, 2000,
          5000,  10000};
}

LocalCounter::LocalCounter(std::string_view name)
    : counter_(&registry().counter(name)) {}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back(
        {name, h->bounds(), h->bucket_counts(), h->count(), h->sum()});
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsRegistry& registry() {
  static MetricsRegistry instance;
  return instance;
}

double histogram_mean(const HistogramSample& h) {
  if (h.count == 0) return 0.0;
  return h.sum / static_cast<double>(h.count);
}

double histogram_quantile(const HistogramSample& h, double q, bool* clamped) {
  if (clamped != nullptr) *clamped = false;
  if (h.count == 0 || h.bounds.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(h.count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
    const std::uint64_t in_bucket = h.bucket_counts[i];
    if (in_bucket == 0) continue;
    const double lo = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= h.bounds.size()) {
      // Overflow bucket: the true quantile exceeds every finite bound.
      // Return the clamp explicitly (see the header) rather than guessing.
      if (clamped != nullptr) *clamped = true;
      return h.bounds.back();
    }
    const double lower = i == 0 ? 0.0 : h.bounds[i - 1];
    const double upper = h.bounds[i];
    const double frac = (rank - lo) / static_cast<double>(in_bucket);
    return lower + (upper - lower) * std::min(1.0, std::max(0.0, frac));
  }
  return h.bounds.back();
}

}  // namespace fbt::obs
