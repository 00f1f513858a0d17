#include "serve/cache_key.hpp"

#include <cstdio>

#include "netlist/bench_io.hpp"

namespace fbt::serve {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
// Second lane: same structure, different odd multiplier, so the two 64-bit
// lanes decorrelate even though they walk the same byte stream.
constexpr std::uint64_t kLane2Prime = 0x00000100000001b5ULL;

}  // namespace

std::string CacheKey::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf, 32);
}

KeyBuilder& KeyBuilder::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hi_ = (hi_ ^ p[i]) * kFnvPrime;
    lo_ = (lo_ ^ p[i]) * kLane2Prime;
  }
  return *this;
}

KeyBuilder& KeyBuilder::str(std::string_view s) {
  u64(s.size());
  return bytes(s.data(), s.size());
}

KeyBuilder& KeyBuilder::u64(std::uint64_t v) {
  unsigned char le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<unsigned char>(v >> (8 * i));
  return bytes(le, sizeof le);
}

KeyBuilder& KeyBuilder::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  __builtin_memcpy(&bits, &v, sizeof bits);
  return u64(bits);
}

KeyBuilder& KeyBuilder::key(const CacheKey& k) { return u64(k.hi).u64(k.lo); }

CacheKey KeyBuilder::finish() const { return {hi_, lo_}; }

CacheKey netlist_cache_key(const Netlist& netlist) {
  // write_bench leads with a "# <name>" comment; the key is over content
  // only, so the same circuit under different names shares one key.
  std::string text = write_bench(netlist);
  if (!text.empty() && text.front() == '#') {
    const std::size_t nl = text.find('\n');
    text.erase(0, nl == std::string::npos ? text.size() : nl + 1);
  }
  return KeyBuilder().str("netlist").str(text).finish();
}

CacheKey calibration_cache_key(const CacheKey& target_key,
                               const CacheKey& driver_key,
                               const SwaCalibrationConfig& config) {
  return KeyBuilder()
      .str("calibration")
      .key(target_key)
      .key(driver_key)
      .u64(config.num_sequences)
      .u64(config.sequence_length)
      .u64(config.tpg.lfsr_stages)
      .u64(config.tpg.bias_bits)
      .u64(config.rng_seed)
      .finish();
}

CacheKey fault_list_cache_key(const CacheKey& target_key) {
  return KeyBuilder().str("fault_list").key(target_key).finish();
}

CacheKey flat_fanins_cache_key(const CacheKey& target_key) {
  return KeyBuilder().str("flat_fanins").key(target_key).finish();
}

CacheKey experiment_cache_key(const CacheKey& target_key,
                              const CacheKey& driver_key,
                              const BistExperimentConfig& config) {
  KeyBuilder b;
  b.str("experiment").key(target_key).key(driver_key);
  // Calibration (feeds swa_bound_percent).
  b.u64(config.calibration.num_sequences)
      .u64(config.calibration.sequence_length)
      .u64(config.calibration.tpg.lfsr_stages)
      .u64(config.calibration.tpg.bias_bits)
      .u64(config.calibration.rng_seed);
  // Generation. swa_bound_percent/bounded are derived (from calibration and
  // the driver) rather than request inputs.
  const FunctionalBistConfig& g = config.generation;
  b.u64(g.tpg.lfsr_stages)
      .u64(g.tpg.bias_bits)
      .u64(g.segment_length)
      .u64(g.max_segment_failures)
      .u64(g.max_sequence_failures)
      .u64(g.rng_seed)
      .u64(g.detect_limit)
      .u64(g.hold_period_log2)
      .u64(g.hold_set.size());
  for (const std::size_t flop : g.hold_set) b.u64(flop);
  b.u64(g.pattern_store != nullptr ? 1 : 0);
  // Scan partition and the flow knobs.
  b.u64(config.scan.max_chains)
      .u64(config.scan.min_chain_length)
      .u64(config.reduce_sequences ? 1 : 0)
      .u64(config.emit_rtl ? 1 : 0)
      .u64(config.rtl_misr_stages);
  return b.finish();
}

}  // namespace fbt::serve
