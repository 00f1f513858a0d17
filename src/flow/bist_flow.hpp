// End-to-end experiment driver for the built-in functional broadside test
// generation flow (dissertation §4.6): load target + driving block, calibrate
// SWA_func from functional input sequences, construct multi-segment primary
// input sequences on-chip, grade transition-fault coverage, and cost the
// hardware. Shared by bench_table4_* and the examples.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "bist/embedded.hpp"
#include "bist/functional_bist.hpp"
#include "bist/hardware_plan.hpp"
#include "bist/state_holding.hpp"
#include "fault/fault.hpp"
#include "jobs/job_system.hpp"
#include "netlist/netlist.hpp"
#include "netlist/scan.hpp"
#include "rtl/emit.hpp"

namespace fbt {

struct BistExperimentConfig {
  std::string target_name;
  /// Driving block name; empty selects the unconstrained "buffers" block.
  std::string driver_name;
  SwaCalibrationConfig calibration;
  FunctionalBistConfig generation;  ///< L, R, Q, seeds; swa bound filled in
  ScanConfig scan;
  /// §4.3's seed-set reduction: after construction, drop whole multi-segment
  /// sequences whose tests detect nothing the kept sequences miss
  /// (reverse-order fault simulation with dropping over sequence groups).
  bool reduce_sequences = true;
  /// No-ops, like their FunctionalBistConfig namesakes; kept only so
  /// existing callers that assign them still compile. Every fault-grading
  /// step of the flow runs on one PPSFP grader.
  std::size_t num_threads = 1;
  std::size_t speculation_lanes = 64;
  std::size_t fault_pack_width = 64;
  /// Emit the on-chip BIST machinery as Verilog after generation. Requires a
  /// scan partition whose chain lengths all divide Lsc -- use
  /// equal_partition_scan_config for `scan` (emit_bist_rtl fails loudly
  /// otherwise).
  bool emit_rtl = false;
  unsigned rtl_misr_stages = 24;
};

struct BistExperimentResult {
  Netlist target;            ///< the circuit under test (owned copy)
  ScanChains scan;           ///< scan-chain partition (Lsc)
  TransitionFaultList faults;
  std::vector<std::uint32_t> detect_count;  ///< per fault after generation
  double swa_func = 0.0;     ///< calibrated bound (percent)
  FunctionalBistResult run;  ///< after sequence reduction (when enabled)
  std::size_t seeds_before_reduction = 0;
  std::size_t sequences_before_reduction = 0;
  std::size_t detected = 0;
  double fault_coverage_percent = 0.0;
  double hw_area = 0.0;
  double circuit_area_um2 = 0.0;
  double overhead_percent = 0.0;
  std::size_t nsp = 0;       ///< specified inputs in the cube (Table 4.2)
  FunctionalBistConfig generation;  ///< the exact config used (bound filled)
  /// Emitted BIST RTL (when config.emit_rtl and the run produced sequences).
  std::optional<EmittedRtl> rtl;
};

/// Pre-computed inputs an orchestrator (the serving cache) may hand to
/// run_bist_experiment so the flow skips re-deriving them. Every field is
/// optional; a null/empty field is derived from `config` as usual. Supplied
/// artifacts MUST match what the config would derive (the cache keys them by
/// netlist content + config fields) -- the flow trusts them.
struct ExperimentArtifacts {
  std::shared_ptr<const Netlist> target;
  std::shared_ptr<const Netlist> driver;
  /// Calibrated SWA_func peak (percent); skips measure_swa_func entirely.
  std::optional<double> swa_func_percent;
  /// Collapsed transition-fault list of the target.
  std::shared_ptr<const TransitionFaultList> faults;
};

/// Runs calibration + constrained (or unconstrained, when driver is
/// "buffers"/empty) built-in generation. Uses the process-wide job pool.
BistExperimentResult run_bist_experiment(const BistExperimentConfig& config);

/// Same flow with SWA_func calibration's sequences on `jobs`, so many
/// experiments share one pool; everything else runs on the calling thread.
/// `artifacts` skips each artifact step (target, driver, faults,
/// calibration) whose result the caller already holds (cache hits). Results
/// are bit-identical to the single-argument overload for any pool size and
/// any artifacts.
BistExperimentResult run_bist_experiment(const BistExperimentConfig& config,
                                         jobs::JobSystem& jobs,
                                         const ExperimentArtifacts& artifacts);

struct HoldExperimentResult {
  HoldSelectionResult hold;
  std::size_t detected_total = 0;
  double coverage_improvement_percent = 0.0;
  double final_coverage_percent = 0.0;
  double hw_area = 0.0;
  double overhead_percent = 0.0;
};

/// Continues a finished experiment with the state-holding phase (Table 4.4).
/// The Det runs of set selection use the process-wide job pool.
HoldExperimentResult run_hold_experiment(BistExperimentResult& base,
                                         const HoldSelectionConfig& config,
                                         std::uint64_t rng_seed);

}  // namespace fbt
