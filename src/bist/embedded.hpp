// Embedded-block composition and functional switching-activity calibration
// (dissertation §4.1 Fig. 4.1, §4.4, §4.6).
//
// A target circuit embedded in a larger design has its primary inputs driven
// by another block's primary outputs, which constrains the input sequences it
// can see. The constraints are captured by simulating functional input
// sequences of the complete design (driving block + target) and recording the
// peak per-cycle switching activity inside the target: SWA_func. The "buffers"
// driving block (straight feed-through) represents the unconstrained case.
#pragma once

#include <cstdint>
#include <memory>

#include "bist/signal_transitions.hpp"
#include "bist/tpg.hpp"
#include "netlist/netlist.hpp"

namespace fbt {

namespace jobs {
class JobSystem;
}

struct SwaCalibrationConfig {
  std::size_t num_sequences = 16;    ///< dissertation: 30
  std::size_t sequence_length = 4096;  ///< dissertation: 30000
  TpgConfig tpg;                     ///< TPG built for the driving block
  std::uint64_t rng_seed = 7;
};

struct SwaCalibration {
  double peak_percent = 0.0;  ///< SWA_func
};

/// Simulates `config.num_sequences` functional input sequences through
/// driver -> target and returns the peak switching activity observed in the
/// target. Requires driver.num_outputs() >= target.num_inputs(); the first
/// num_inputs() driver outputs feed the target's inputs in order. The
/// sequences are independent and run on `pool`; the peak does not depend on
/// the pool's size.
SwaCalibration measure_swa_func(const Netlist& target, const Netlist& driver,
                                const SwaCalibrationConfig& config,
                                jobs::JobSystem& pool);

/// Same, on the process-wide pool (jobs::global_jobs()). `target_flat` is
/// ignored; it remains only so existing callers that pass it still compile.
SwaCalibration measure_swa_func(
    const Netlist& target, const Netlist& driver,
    const SwaCalibrationConfig& config,
    std::shared_ptr<const class FlatFanins> target_flat = nullptr);

/// Full functional profile: the SWA peak plus the store of observed signal-
/// transition patterns (§5.1, consumed by the pattern-bound generation mode).
struct FunctionalProfile {
  double peak_percent = 0.0;
  TransitionPatternStore patterns;
};
FunctionalProfile measure_functional_profile(
    const Netlist& target, const Netlist& driver,
    const SwaCalibrationConfig& config, std::size_t max_patterns = 4096);

}  // namespace fbt
