#include "serve/cache_key.hpp"

#include <gtest/gtest.h>

#include <string>

#include "circuits/registry.hpp"
#include "netlist/bench_io.hpp"

namespace fbt::serve {
namespace {

BistExperimentConfig base_config() {
  BistExperimentConfig cfg;
  cfg.target_name = "s298";
  cfg.driver_name = "buffers";
  cfg.calibration.num_sequences = 4;
  cfg.calibration.sequence_length = 400;
  cfg.generation.segment_length = 200;
  cfg.generation.max_segment_failures = 2;
  cfg.generation.max_sequence_failures = 2;
  cfg.generation.rng_seed = 19;
  return cfg;
}

TEST(CacheKey, HexIs32LowercaseDigits) {
  const CacheKey key = KeyBuilder().str("probe").finish();
  const std::string hex = key.hex();
  ASSERT_EQ(hex.size(), 32u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
  }
}

TEST(CacheKey, KeyBuilderIsDeterministic) {
  const CacheKey a = KeyBuilder().str("x").u64(7).f64(1.5).finish();
  const CacheKey b = KeyBuilder().str("x").u64(7).f64(1.5).finish();
  EXPECT_EQ(a, b);
  const CacheKey c = KeyBuilder().str("x").u64(8).f64(1.5).finish();
  EXPECT_NE(a, c);
}

TEST(CacheKey, LengthPrefixPreventsConcatAliasing) {
  // "ab" + "c" must not collide with "a" + "bc".
  const CacheKey a = KeyBuilder().str("ab").str("c").finish();
  const CacheKey b = KeyBuilder().str("a").str("bc").finish();
  EXPECT_NE(a, b);
}

TEST(CacheKey, NetlistKeyIgnoresTextualVariants) {
  const std::string text =
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
  const std::string noisy =
      "# a comment\n\nINPUT(a)\n  INPUT(b)\nOUTPUT(y)\n\n"
      "y = AND(a,   b)\n# trailing\n";
  const Netlist n1 = parse_bench(text, "one");
  const Netlist n2 = parse_bench(noisy, "two");
  EXPECT_EQ(netlist_cache_key(n1), netlist_cache_key(n2));
}

TEST(CacheKey, NetlistKeySeparatesDifferentCircuits) {
  const Netlist and_gate = parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "g");
  const Netlist or_gate = parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n", "g");
  EXPECT_NE(netlist_cache_key(and_gate), netlist_cache_key(or_gate));
}

TEST(CacheKey, RegistryCircuitsHaveDistinctKeys) {
  const CacheKey s298 = netlist_cache_key(load_benchmark("s298"));
  const CacheKey s386 = netlist_cache_key(load_benchmark("s386"));
  EXPECT_NE(s298, s386);
  // And the key is stable across loads.
  EXPECT_EQ(s298, netlist_cache_key(load_benchmark("s298")));
}

TEST(CacheKey, ExperimentKeyFlipsOnResultAffectingFields) {
  const CacheKey target = KeyBuilder().str("t").finish();
  const CacheKey driver = KeyBuilder().str("d").finish();
  const BistExperimentConfig base = base_config();
  const CacheKey base_key = experiment_cache_key(target, driver, base);

  // Each result-affecting field must change the key when flipped.
  {
    BistExperimentConfig c = base;
    c.generation.rng_seed += 1;
    EXPECT_NE(experiment_cache_key(target, driver, c), base_key);
  }
  {
    BistExperimentConfig c = base;
    c.generation.segment_length += 1;
    EXPECT_NE(experiment_cache_key(target, driver, c), base_key);
  }
  {
    BistExperimentConfig c = base;
    c.generation.max_segment_failures += 1;
    EXPECT_NE(experiment_cache_key(target, driver, c), base_key);
  }
  {
    BistExperimentConfig c = base;
    c.generation.max_sequence_failures += 1;
    EXPECT_NE(experiment_cache_key(target, driver, c), base_key);
  }
  {
    BistExperimentConfig c = base;
    c.calibration.num_sequences += 1;
    EXPECT_NE(experiment_cache_key(target, driver, c), base_key);
  }
  {
    BistExperimentConfig c = base;
    c.calibration.sequence_length += 1;
    EXPECT_NE(experiment_cache_key(target, driver, c), base_key);
  }
  {
    BistExperimentConfig c = base;
    c.reduce_sequences = !c.reduce_sequences;
    EXPECT_NE(experiment_cache_key(target, driver, c), base_key);
  }
  // Different netlists never share a key either.
  EXPECT_NE(experiment_cache_key(driver, target, base), base_key);
}

TEST(CacheKey, DerivedArtifactKeysAreDistinctPerKind) {
  const CacheKey target = KeyBuilder().str("t").finish();
  const CacheKey driver = KeyBuilder().str("d").finish();
  const SwaCalibrationConfig cal;
  const CacheKey cal_key = calibration_cache_key(target, driver, cal);
  const CacheKey faults = fault_list_cache_key(target);
  const CacheKey flat = flat_fanins_cache_key(target);
  EXPECT_NE(cal_key, faults);
  EXPECT_NE(cal_key, flat);
  EXPECT_NE(faults, flat);
}

TEST(CacheKey, CalibrationKeyFlipsOnConfig) {
  const CacheKey target = KeyBuilder().str("t").finish();
  const CacheKey driver = KeyBuilder().str("d").finish();
  SwaCalibrationConfig a;
  SwaCalibrationConfig b = a;
  b.num_sequences += 1;
  EXPECT_NE(calibration_cache_key(target, driver, a),
            calibration_cache_key(target, driver, b));
  SwaCalibrationConfig c = a;
  c.rng_seed += 1;
  EXPECT_NE(calibration_cache_key(target, driver, a),
            calibration_cache_key(target, driver, c));
}

}  // namespace
}  // namespace fbt::serve
