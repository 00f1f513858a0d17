#include "obs/analytics.hpp"

#include <utility>

namespace fbt::obs {

namespace {

/// Numeric field lookup; returns `fallback` when absent or non-numeric.
std::uint64_t field_uint(const JournalEvent& e, const char* key,
                         std::uint64_t fallback = 0) {
  for (const auto& [k, v] : e.fields) {
    if (k != key) continue;
    switch (v.kind) {
      case EventValue::Kind::kUint: return v.u;
      case EventValue::Kind::kInt:
        return v.i < 0 ? fallback : static_cast<std::uint64_t>(v.i);
      case EventValue::Kind::kDouble:
        return v.d < 0 ? fallback : static_cast<std::uint64_t>(v.d);
      case EventValue::Kind::kString: return fallback;
    }
  }
  return fallback;
}

double field_double(const JournalEvent& e, const char* key,
                    double fallback = 0.0) {
  for (const auto& [k, v] : e.fields) {
    if (k != key) continue;
    switch (v.kind) {
      case EventValue::Kind::kUint: return static_cast<double>(v.u);
      case EventValue::Kind::kInt: return static_cast<double>(v.i);
      case EventValue::Kind::kDouble: return v.d;
      case EventValue::Kind::kString: return fallback;
    }
  }
  return fallback;
}

}  // namespace

RunAnalytics derive_analytics(const std::vector<JournalEvent>& events,
                              std::size_t max_convergence_points) {
  RunAnalytics out;
  for (const JournalEvent& e : events) {
    if (e.type == "grade_block") {
      out.convergence.push_back(
          {field_uint(e, "tests_applied"), field_uint(e, "detected")});
    } else if (e.type == "seed_accepted") {
      out.segment_yield.push_back({field_uint(e, "sequence"),
                                   field_uint(e, "segment"),
                                   field_uint(e, "seed"),
                                   field_uint(e, "tests"),
                                   field_uint(e, "newly_detected"),
                                   field_double(e, "peak_swa")});
    }
  }

  if (max_convergence_points >= 2 &&
      out.convergence.size() > max_convergence_points) {
    std::vector<ConvergencePoint> sampled;
    sampled.reserve(max_convergence_points);
    const std::size_t n = out.convergence.size();
    for (std::size_t i = 0; i < max_convergence_points; ++i) {
      // Even spacing with both endpoints; the final point keeps the curve's
      // terminal coverage exact.
      const std::size_t idx = i * (n - 1) / (max_convergence_points - 1);
      if (sampled.empty() || sampled.back() != out.convergence[idx]) {
        sampled.push_back(out.convergence[idx]);
      }
    }
    out.convergence = std::move(sampled);
  }
  return out;
}

}  // namespace fbt::obs
