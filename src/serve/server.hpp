// The serving core: ExperimentService executes protocol requests against a
// shared JobSystem + ArtifactCache, and SocketServer exposes it on a local
// AF_UNIX socket with NDJSON framing.
//
// Request lifecycle (experiment):
//   1. resolve target/driver netlists through the cache (content keys; the
//      name -> key memo makes repeat requests for named benchmarks O(1));
//   2. look up the experiment key -- a hit renders the stored summary
//      without touching the flow (the >= 10x warm path);
//   3. on a miss, fetch the derived artifacts (collapsed fault list, SWA_func
//      calibration) through the cache and run the flow as one task on the
//      shared pool under the request's own event journal, streaming its
//      events as progress lines while it executes;
//   4. store the summary under the experiment key and render it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "jobs/job_system.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/protocol.hpp"

namespace fbt::serve {

/// Longest request line a connection may buffer while waiting for its
/// newline. An inline `netlist_bench` must fit: the largest registry circuit
/// (wb_conmax) writes ~170 KB of .bench text, so this leaves room for
/// inline circuits ~24x that size. A peer that exceeds it gets one protocol
/// error line and is disconnected, so a client that never sends '\n' cannot
/// grow the daemon's memory without bound.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{4} << 20;

class ExperimentService {
 public:
  ExperimentService(jobs::JobSystem& jobs, ArtifactCache& cache);

  /// Handles one NDJSON request line, passing each response line (without
  /// trailing newline) to `emit`. Returns false when the request asked the
  /// server to shut down.
  bool handle_line(const std::string& line,
                   const std::function<void(const std::string&)>& emit);

  /// Direct (in-process) experiment execution; the socket path and the
  /// bench harness share it. `emit`, when set, receives progress lines.
  /// Sets `*cache_hit` to whether the experiment key was already cached.
  ExperimentSummary run_experiment(
      const ExperimentRequest& request, bool* cache_hit,
      const std::function<void(const std::string&)>& emit = {},
      const std::string& id = {}, std::string* experiment_key_hex = nullptr);

  ArtifactCache& cache() { return cache_; }
  std::uint64_t requests_total() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Assembles a live ServiceStats from the cache, the request counter, the
  /// serve.request_* latency histograms, and the scheduler snapshot.
  ServiceStats collect_stats() const;

  /// Freezes the stats at their current values: every later stats_snapshot()
  /// returns this copy. Called by the shutdown path BEFORE the graceful
  /// drain starts, so the final `stats` response and the partial run report
  /// agree instead of racing the journal/metrics flush. First freeze wins;
  /// later calls are no-ops.
  void freeze_stats();

  /// The frozen stats when freeze_stats() ran, else collect_stats().
  ServiceStats stats_snapshot() const;

 private:
  struct ResolvedNetlist {
    CacheKey key;
    std::shared_ptr<const Netlist> netlist;  ///< may be null on alias hit
  };
  /// Target by inline text (canonicalized via parse) or registry name.
  ResolvedNetlist resolve_target(const ExperimentRequest& request,
                                 bool need_netlist);
  /// Driver by name, or the buffers block sized to the target.
  ResolvedNetlist resolve_driver(const ExperimentRequest& request,
                                 const ResolvedNetlist& target,
                                 bool need_netlist);
  std::shared_ptr<const Netlist> fetch_netlist(
      const CacheKey& key, const std::function<Netlist()>& load);

  jobs::JobSystem& jobs_;
  ArtifactCache& cache_;
  std::atomic<std::uint64_t> requests_{0};
  mutable std::mutex stats_mutex_;  ///< guards frozen_stats_
  std::optional<ServiceStats> frozen_stats_;
};

/// Blocking AF_UNIX NDJSON server: accept loop + one thread per connection.
/// Each connection buffers at most kMaxRequestLineBytes of an unfinished
/// request line. The accept loop joins finished connection threads, so a
/// long-lived daemon holds state only for its live connections.
class SocketServer {
 public:
  SocketServer(ExperimentService& service, std::string socket_path);
  ~SocketServer();

  /// Binds and listens (unlinking a stale socket file). False + `error` on
  /// failure.
  bool start(std::string& error);

  /// Runs the accept loop until request_stop(); joins connection threads
  /// before returning.
  void serve_forever();

  /// Stops the accept loop and wakes blocked connection reads. Safe from
  /// any thread (the signal watcher calls it).
  void request_stop();

  bool stopping() const { return stop_.load(std::memory_order_acquire); }
  const std::string& socket_path() const { return path_; }

  /// Connections whose thread has not been joined yet.
  std::size_t tracked_connections() const;

 private:
  struct Connection {
    int fd = -1;  ///< -1 once the handler has released the descriptor
    std::thread thread;
  };

  void handle_connection(int fd);
  /// Joins the threads of connections whose handler has finished.
  void reap_finished();
  /// Joins every connection thread (shutdown).
  void join_all();

  ExperimentService& service_;
  std::string path_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  mutable std::mutex mutex_;  ///< guards connections_
  std::vector<Connection> connections_;
};

}  // namespace fbt::serve
