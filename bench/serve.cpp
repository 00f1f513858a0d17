// Serving-path bench: cold-vs-warm latency and concurrent throughput of the
// in-process ExperimentService (the same core the fbt_serve daemon wraps).
//
// The experiment is calibration-heavy (12 x 2048-cycle SWA sequences) so the
// cold path has real work to amortize; the warm path is an experiment-key
// cache hit that re-renders the stored summary. The bench asserts the warm
// summary is bit-identical to both the cold run and a batch
// run_bist_experiment of the same config (detect-count and first-detect
// fingerprints), then times 4 client threads multiplexing warm requests over
// the one shared pool.
//
// Gauges recorded into BENCH_serve.json (gated by `fbt_report diff
// --min-warm-speedup` in CI):
//   serve.cold_ms          first-request latency (cache miss, full flow)
//   serve.warm_ms          mean repeat-request latency (cache hit)
//   serve.warm_speedup     cold_ms / warm_ms
//   serve.concurrent_rps   warm requests/sec across 4 concurrent clients
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "flow/bist_flow.hpp"
#include "jobs/job_system.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  const std::string target = cli.get("target", "s298");
  const std::size_t warm_repeats =
      static_cast<std::size_t>(cli.get_int_in("warm-repeats", 64, 1, 1 << 20));
  const auto clients =
      static_cast<std::size_t>(cli.get_int_in("clients", 4, 1, 64));
  const std::size_t requests_per_client = static_cast<std::size_t>(
      cli.get_int_in("requests-per-client", 128, 1, 1 << 20));

  fbt::serve::ExperimentRequest request;
  request.target = target;
  request.driver = "buffers";
  request.config.target_name = target;
  request.config.driver_name = "buffers";
  request.config.calibration.num_sequences = 12;
  request.config.calibration.sequence_length = 2048;
  request.config.generation.segment_length = 200;
  request.config.generation.max_segment_failures = 2;
  request.config.generation.max_sequence_failures = 2;
  request.config.generation.rng_seed = 19;

  // The container may report a single core; the serving pool is explicitly
  // sized so requests and their calibration lanes share workers regardless.
  fbt::jobs::JobSystem jobs(4);
  fbt::serve::ArtifactCache cache;
  fbt::serve::ExperimentService service(jobs, cache);

  bool hit = false;
  fbt::Timer cold_timer;
  const fbt::serve::ExperimentSummary cold =
      service.run_experiment(request, &hit);
  const double cold_ms = cold_timer.ms();
  if (hit) {
    std::fprintf(stderr, "bench_serve: first request unexpectedly hit\n");
    return 1;
  }

  fbt::Timer warm_timer;
  fbt::serve::ExperimentSummary warm;
  for (std::size_t i = 0; i < warm_repeats; ++i) {
    warm = service.run_experiment(request, &hit);
    if (!hit) {
      std::fprintf(stderr, "bench_serve: warm request missed\n");
      return 1;
    }
  }
  const double warm_ms = warm_timer.ms() / static_cast<double>(warm_repeats);
  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;

  // Identity: warm hit vs cold miss vs the batch CLI path, by fingerprint.
  const fbt::BistExperimentResult batch =
      fbt::run_bist_experiment(request.config);
  const std::string cold_detect =
      fbt::serve::hash_detect_counts(cold.detect_count);
  const std::string cold_first =
      fbt::serve::hash_first_detects(cold.first_detect);
  const bool identical =
      cold_detect == fbt::serve::hash_detect_counts(warm.detect_count) &&
      cold_detect == fbt::serve::hash_detect_counts(batch.detect_count) &&
      cold_first == fbt::serve::hash_first_detects(warm.first_detect) &&
      cold_first == fbt::serve::hash_first_detects(batch.run.first_detect);
  if (!identical) {
    std::fprintf(stderr,
                 "bench_serve: warm/cold/batch results are NOT identical\n");
  }

  // Concurrent warm throughput: several client threads hammer the service;
  // they share the pool and the cache, so this measures multiplexing
  // overhead, not flow work.
  fbt::Timer rps_timer;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&service, &request, requests_per_client] {
      bool h = false;
      for (std::size_t i = 0; i < requests_per_client; ++i) {
        (void)service.run_experiment(request, &h);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double rps_elapsed_s = rps_timer.ms() / 1000.0;
  const double rps =
      rps_elapsed_s > 0.0
          ? static_cast<double>(clients * requests_per_client) / rps_elapsed_s
          : 0.0;

  fbt::obs::MetricsRegistry& reg = fbt::obs::registry();
  reg.gauge("serve.cold_ms").set(cold_ms);
  reg.gauge("serve.warm_ms").set(warm_ms);
  reg.gauge("serve.warm_speedup").set(speedup);
  reg.gauge("serve.concurrent_rps").set(rps);

  std::printf(
      "serve: %s cold %.2f ms, warm %.4f ms (%.0fx), %.0f req/s over %zu "
      "clients, identical=%s\n",
      target.c_str(), cold_ms, warm_ms, speedup, rps, clients,
      identical ? "yes" : "NO");

  fbt::obs::write_bench_report(
      "serve", {{"target", target}, {"identical", identical ? "yes" : "no"}});
  return identical ? 0 : 1;
}
