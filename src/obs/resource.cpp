#include "obs/resource.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#define FBT_HAS_GETRUSAGE 1
#else
#define FBT_HAS_GETRUSAGE 0
#endif

namespace fbt::obs {

namespace {

/// Reads one "Vm...: <kB> kB" line from /proc/self/status. Returns 0 when
/// the file or the field is absent (non-Linux).
std::uint64_t proc_status_kb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const std::size_t field_len = std::strlen(field);
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':') {
      kb = std::strtoull(line + field_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// Resident pages from /proc/self/statm (second field); much cheaper than
/// scanning /proc/self/status, which matters for the throttled sampler.
std::uint64_t statm_resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long total = 0;
  unsigned long long resident = 0;
  const int fields = std::fscanf(f, "%llu %llu", &total, &resident);
  std::fclose(f);
  if (fields != 2) return 0;
#if FBT_HAS_GETRUSAGE
  const long page = sysconf(_SC_PAGESIZE);
  return resident * static_cast<std::uint64_t>(page > 0 ? page : 4096);
#else
  return resident * 4096ull;
#endif
}

}  // namespace

std::uint64_t peak_rss_bytes() {
  if (const std::uint64_t kb = proc_status_kb("VmHWM"); kb > 0) {
    return kb * 1024;
  }
#if FBT_HAS_GETRUSAGE
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // kB on Linux
#endif
  }
#endif
  return 0;
}

std::uint64_t current_rss_bytes() {
  if (const std::uint64_t bytes = statm_resident_bytes(); bytes > 0) {
    return bytes;
  }
  if (const std::uint64_t kb = proc_status_kb("VmRSS"); kb > 0) {
    return kb * 1024;
  }
  return 0;
}

std::uint64_t sampled_rss_bytes() {
  constexpr std::uint64_t kResampleUs = 1000;
  static std::atomic<std::uint64_t> cached{0};
  static std::atomic<std::uint64_t> last_sample_us{0};
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  const auto now_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            epoch)
          .count());
  std::uint64_t last = last_sample_us.load(std::memory_order_relaxed);
  if (cached.load(std::memory_order_relaxed) == 0 ||
      now_us - last >= kResampleUs) {
    // One thread wins the re-read; losers return the (still fresh) cache.
    if (last_sample_us.compare_exchange_strong(last, now_us,
                                               std::memory_order_relaxed)) {
      cached.store(current_rss_bytes(), std::memory_order_relaxed);
    }
  }
  return cached.load(std::memory_order_relaxed);
}

void FootprintRegistry::record(std::string_view name, std::uint64_t bytes) {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    entries_.emplace(std::string(name), bytes);
  } else {
    it->second = std::max(it->second, bytes);
  }
}

std::vector<FootprintSample> FootprintRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<FootprintSample> out;
  out.reserve(entries_.size());
  for (const auto& [name, bytes] : entries_) out.push_back({name, bytes});
  return out;
}

std::uint64_t FootprintRegistry::total_bytes() const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [name, bytes] : entries_) total += bytes;
  return total;
}

void FootprintRegistry::clear() {
  std::lock_guard lock(mutex_);
  entries_.clear();
}

FootprintRegistry& footprints() {
  static FootprintRegistry instance;
  return instance;
}

MemoryReport collect_memory_report() {
  MemoryReport report;
  report.peak_rss_bytes = peak_rss_bytes();
  report.current_rss_bytes = current_rss_bytes();
  report.footprints = footprints().snapshot();
  return report;
}

}  // namespace fbt::obs
