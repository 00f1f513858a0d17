// Content-hash cache keys for the serving layer.
//
// Every cached artifact is addressed by what it is derived from, never by
// where it came from: netlists hash their canonical .bench serialization
// (write_bench round-trips parse_bench, so whitespace/comment/ordering
// variants of the same circuit collapse to one key), and derived artifacts
// fold the producing netlist keys together with exactly the config fields
// that affect their bytes.
//
// The hash is a dual-lane 64-bit FNV-1a (two independent offset bases /
// primes over the same byte stream) giving a 128-bit key; collisions are
// not a correctness hazard the protocol must survive, just vanishingly
// unlikely. Every variable-length field is length-prefixed before folding so
// concatenation ambiguity cannot alias two different inputs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "bist/embedded.hpp"
#include "flow/bist_flow.hpp"
#include "netlist/netlist.hpp"

namespace fbt::serve {

struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const CacheKey&) const = default;
  /// 32 lowercase hex digits; the wire/report form of the key.
  std::string hex() const;
};

/// Incremental dual-lane FNV-1a fold. All multi-byte integers are folded
/// little-endian; doubles fold their IEEE-754 bit pattern (so two configs
/// differing in any bit of any field produce different streams).
class KeyBuilder {
 public:
  KeyBuilder& bytes(const void* data, std::size_t size);
  /// Length-prefixed string fold.
  KeyBuilder& str(std::string_view s);
  KeyBuilder& u64(std::uint64_t v);
  KeyBuilder& f64(double v);
  KeyBuilder& key(const CacheKey& k);
  CacheKey finish() const;

 private:
  std::uint64_t hi_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::uint64_t lo_ = 0x6c62272e07bb0142ULL;  // FNV-0 basis (second lane)
};

/// Key of a netlist's content: hashes write_bench(netlist), the canonical
/// serialization. Two textual .bench variants that parse to the same circuit
/// share a key; the circuit's name is NOT part of it.
CacheKey netlist_cache_key(const Netlist& netlist);

/// Key of the SWA_func calibration artifact for target driven by driver.
CacheKey calibration_cache_key(const CacheKey& target_key,
                               const CacheKey& driver_key,
                               const SwaCalibrationConfig& config);

/// Key of the collapsed transition-fault list (depends only on the target).
CacheKey fault_list_cache_key(const CacheKey& target_key);

/// Key of a full experiment result. Folds the netlist keys and every config
/// field that can change the result bytes.
CacheKey experiment_cache_key(const CacheKey& target_key,
                              const CacheKey& driver_key,
                              const BistExperimentConfig& config);

}  // namespace fbt::serve
