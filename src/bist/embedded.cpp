#include "bist/embedded.hpp"

#include <algorithm>

#include "jobs/in_order.hpp"
#include "jobs/job_system.hpp"
#include "obs/instrument.hpp"
#include "sim/seqsim.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace fbt {

namespace {

/// The TPG seed of every calibration sequence, in sequence order.
std::vector<std::uint32_t> sequence_seeds(const SwaCalibrationConfig& config) {
  Pcg32 rng(config.rng_seed, 0x6a09e667f3bcc909ULL);
  std::vector<std::uint32_t> seeds(config.num_sequences);
  for (std::uint32_t& seed : seeds) seed = rng.next() | 1u;
  return seeds;
}

/// Simulates one calibration sequence from the reset state, with its own
/// copy of `tpg` reseeded to `seed`, and returns its peak switching activity
/// in the target. When `store` is set, every cycle's transition pattern is
/// recorded into it.
double run_sequence(const Netlist& target, const Netlist& driver,
                    const Tpg& tpg, std::uint32_t seed, std::size_t length,
                    TransitionPatternStore* store) {
  Tpg sequence_tpg = tpg;
  sequence_tpg.reseed(seed);
  SeqSim driver_sim(driver);
  SeqSim target_sim(target);
  std::vector<std::uint8_t> driver_pi(driver.num_inputs(), 0);
  std::vector<std::uint8_t> target_pi(target.num_inputs(), 0);
  const NodeId* driver_out = driver.outputs().data();
  double peak = 0.0;
  for (std::size_t c = 0; c < length; ++c) {
    sequence_tpg.next_vector_into(driver_pi);
    driver_sim.step(driver_pi);
    for (std::size_t i = 0; i < target_pi.size(); ++i) {
      target_pi[i] = driver_sim.value(driver_out[i]);
    }
    const SeqStep step = target_sim.step(target_pi);
    // SWA(0) of each sequence is undefined (the simulator reports 0 there).
    peak = std::max(peak, step.switching_percent);
    if (store != nullptr && step.toggled_lines > 0) {
      store->record(make_transition_pattern(target_sim.prev_values(),
                                            target_sim.values()));
    }
  }
  return peak;
}

/// Runs every calibration sequence and returns the max of their peaks.
/// Without a store the sequences are independent and run on `pool`. With
/// one they run serially in sequence order: a capped store keeps the first
/// patterns it sees, so the order of record() calls is part of the result.
double run_calibration(const Netlist& target, const Netlist& driver,
                       const SwaCalibrationConfig& config,
                       jobs::JobSystem& pool, TransitionPatternStore* store) {
  require(driver.num_outputs() >= target.num_inputs(), "measure_swa_func",
          "driving block has fewer outputs than the target has inputs");
  require(config.num_sequences >= 1 && config.sequence_length >= 2,
          "measure_swa_func", "need at least one sequence of length >= 2");
  FBT_OBS_PHASE("calibrate");
  const Tpg tpg(driver, config.tpg);
  const std::vector<std::uint32_t> seeds = sequence_seeds(config);
  const auto sequence = [&](std::size_t s) {
    return run_sequence(target, driver, tpg, seeds[s], config.sequence_length,
                        store);
  };
  std::vector<double> peaks;
  if (store == nullptr) {
    peaks = jobs::run_in_order(pool, seeds.size(), sequence);
  } else {
    for (std::size_t s = 0; s < seeds.size(); ++s) peaks.push_back(sequence(s));
  }
  return *std::max_element(peaks.begin(), peaks.end());
}

}  // namespace

SwaCalibration measure_swa_func(const Netlist& target, const Netlist& driver,
                                const SwaCalibrationConfig& config,
                                jobs::JobSystem& pool) {
  return {run_calibration(target, driver, config, pool, nullptr)};
}

SwaCalibration measure_swa_func(
    const Netlist& target, const Netlist& driver,
    const SwaCalibrationConfig& config,
    std::shared_ptr<const FlatFanins> /*target_flat*/) {
  return measure_swa_func(target, driver, config, jobs::global_jobs());
}

FunctionalProfile measure_functional_profile(const Netlist& target,
                                             const Netlist& driver,
                                             const SwaCalibrationConfig& config,
                                             std::size_t max_patterns) {
  FunctionalProfile profile;
  profile.patterns = TransitionPatternStore(max_patterns);
  profile.peak_percent = run_calibration(target, driver, config,
                                         jobs::global_jobs(), &profile.patterns);
  return profile;
}

}  // namespace fbt
