#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "circuits/registry.hpp"
#include "circuits/synth.hpp"
#include "netlist/bench_io.hpp"
#include "obs/event_journal.hpp"
#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"

namespace fbt::serve {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Summary of the named serve.request_* histogram from a metrics snapshot;
/// all zeros until the histogram records its first sample.
LatencyStats latency_from(const obs::MetricsSnapshot& snap,
                          const std::string& name) {
  LatencyStats out;
  for (const obs::HistogramSample& h : snap.histograms) {
    if (h.name != name) continue;
    out.count = h.count;
    out.mean_ms = obs::histogram_mean(h);
    out.p50_ms = obs::histogram_quantile(h, 0.5);
    out.p99_ms = obs::histogram_quantile(h, 0.99, &out.p99_clamped);
    break;
  }
  return out;
}

/// Streams the request journal's events in [cursor, size) as progress
/// lines; advances cursor.
void drain_journal(const obs::EventJournal& journal, std::size_t& cursor,
                   const std::string& id,
                   const std::function<void(const std::string&)>& emit) {
  const std::vector<obs::JournalEvent> events = journal.events();
  for (; cursor < events.size(); ++cursor) {
    emit(render_progress(id, events[cursor]));
  }
}

}  // namespace

ExperimentService::ExperimentService(jobs::JobSystem& jobs,
                                     ArtifactCache& cache)
    : jobs_(jobs), cache_(cache) {}

ServiceStats ExperimentService::collect_stats() const {
  ServiceStats out;
  const ArtifactCache::Stats cs = cache_.stats();
  out.requests_total = requests_total();
  out.cache_hits = cs.hits;
  out.cache_misses = cs.misses;
  out.cache_evictions = cs.evictions;
  out.cache_entries = cs.entries;
  out.cache_bytes = cs.bytes;
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  out.cold = latency_from(snap, "serve.request_total_cold_ms");
  out.warm = latency_from(snap, "serve.request_total_warm_ms");
  out.queue = latency_from(snap, "serve.request_queue_ms");
  out.cache_lookup = latency_from(snap, "serve.request_cache_ms");
  out.compute = latency_from(snap, "serve.request_compute_ms");
  out.render = latency_from(snap, "serve.request_render_ms");
  const jobs::SchedulerSnapshot js = jobs_.scheduler_snapshot();
  out.scheduler.workers = js.workers;
  out.scheduler.queue_depth = js.queue_depth;
  out.scheduler.submitted = js.submitted;
  out.scheduler.executed = js.executed;
  out.scheduler.busy_ms = js.busy_ms;
  out.scheduler.utilization = js.utilization;
  return out;
}

void ExperimentService::freeze_stats() {
  ServiceStats snap = collect_stats();
  std::lock_guard lock(stats_mutex_);
  if (!frozen_stats_.has_value()) frozen_stats_ = std::move(snap);
}

ServiceStats ExperimentService::stats_snapshot() const {
  {
    std::lock_guard lock(stats_mutex_);
    if (frozen_stats_.has_value()) return *frozen_stats_;
  }
  return collect_stats();
}

std::shared_ptr<const Netlist> ExperimentService::fetch_netlist(
    const CacheKey& key, const std::function<Netlist()>& load) {
  return cache_.get_or_compute<Netlist>(
      "netlist", key,
      [&load] { return std::make_shared<const Netlist>(load()); },
      [](const Netlist& n) { return n.footprint_bytes(); });
}

ExperimentService::ResolvedNetlist ExperimentService::resolve_target(
    const ExperimentRequest& request, bool need_netlist) {
  ResolvedNetlist out;
  if (!request.netlist_bench.empty()) {
    // Inline text: canonicalize through parse (write_bench inside the key
    // function makes whitespace/comment variants collide on purpose).
    auto parsed = std::make_shared<Netlist>(parse_bench(
        request.netlist_bench,
        request.target.empty() ? std::string("inline") : request.target));
    out.key = netlist_cache_key(*parsed);
    out.netlist =
        fetch_netlist(out.key, [&parsed] { return std::move(*parsed); });
    return out;
  }
  const std::string alias = "bench:" + request.target;
  if (const std::optional<CacheKey> k = cache_.alias(alias)) {
    out.key = *k;
    if (need_netlist) {
      out.netlist = fetch_netlist(
          out.key, [&request] { return load_benchmark(request.target); });
    }
    return out;
  }
  Netlist loaded = load_benchmark(request.target);
  out.key = netlist_cache_key(loaded);
  cache_.remember_alias(alias, out.key);
  out.netlist = fetch_netlist(out.key, [&loaded] { return std::move(loaded); });
  return out;
}

ExperimentService::ResolvedNetlist ExperimentService::resolve_driver(
    const ExperimentRequest& request, const ResolvedNetlist& target,
    bool need_netlist) {
  const bool unconstrained =
      request.driver.empty() || request.driver == "buffers";
  ResolvedNetlist out;
  if (!unconstrained) {
    const std::string alias = "bench:" + request.driver;
    if (const std::optional<CacheKey> k = cache_.alias(alias)) {
      out.key = *k;
      if (need_netlist) {
        out.netlist = fetch_netlist(
            out.key, [&request] { return load_benchmark(request.driver); });
      }
      return out;
    }
    Netlist loaded = load_benchmark(request.driver);
    out.key = netlist_cache_key(loaded);
    cache_.remember_alias(alias, out.key);
    out.netlist =
        fetch_netlist(out.key, [&loaded] { return std::move(loaded); });
    return out;
  }
  // Buffers block: a pure function of the target's input count, aliased per
  // target so repeat requests never rebuild it.
  const std::string alias = "buffers-for:" + target.key.hex();
  if (const std::optional<CacheKey> k = cache_.alias(alias)) {
    out.key = *k;
    if (!need_netlist) return out;
  }
  // Needs the width (and therefore the target netlist) at least once.
  std::shared_ptr<const Netlist> target_netlist = target.netlist;
  if (target_netlist == nullptr) {
    target_netlist = fetch_netlist(
        target.key, [&request] { return load_benchmark(request.target); });
  }
  Netlist block = make_buffers_block(target_netlist->num_inputs());
  out.key = netlist_cache_key(block);
  cache_.remember_alias(alias, out.key);
  if (need_netlist) {
    out.netlist =
        fetch_netlist(out.key, [&block] { return std::move(block); });
  }
  return out;
}

ExperimentSummary ExperimentService::run_experiment(
    const ExperimentRequest& request, bool* cache_hit,
    const std::function<void(const std::string&)>& emit,
    const std::string& id, std::string* experiment_key_hex) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  FBT_OBS_COUNTER_ADD("serve.requests_total", 1);

  // The cache segment of the request: name/key resolution, the experiment
  // lookup, and (cold only, below) artifact materialization through the
  // cache. Warm requests record only this segment plus the total.
  const auto cache_t0 = std::chrono::steady_clock::now();
  BistExperimentConfig config = request.config;
  config.target_name = request.target;
  config.driver_name = request.driver;
  ResolvedNetlist target;
  ResolvedNetlist driver;
  CacheKey exp_key;
  std::shared_ptr<const void> found;
  {
    FBT_OBS_PHASE("request_cache");
    target = resolve_target(request, /*need_netlist=*/false);
    driver = resolve_driver(request, target, /*need_netlist=*/false);
    exp_key = experiment_cache_key(target.key, driver.key, config);
    found = cache_.lookup(ArtifactCache::make_id("experiment", exp_key));
  }
  const std::string exp_id = ArtifactCache::make_id("experiment", exp_key);
  if (experiment_key_hex != nullptr) *experiment_key_hex = exp_key.hex();
  if (found != nullptr) {
    FBT_OBS_HIST_RECORD_LOG("serve.request_cache_ms", ms_since(cache_t0));
    if (cache_hit != nullptr) *cache_hit = true;
    return *std::static_pointer_cast<const ExperimentSummary>(found);
  }
  if (cache_hit != nullptr) *cache_hit = false;

  ExperimentArtifacts artifacts;
  {
    FBT_OBS_PHASE("request_cache");
    if (target.netlist == nullptr) target = resolve_target(request, true);
    if (driver.netlist == nullptr) {
      driver = resolve_driver(request, target, true);
    }

    // Derived artifacts, each cached under its own content key.
    artifacts.target = target.netlist;
    artifacts.driver = driver.netlist;
    artifacts.faults = cache_.get_or_compute<TransitionFaultList>(
        "fault_list", fault_list_cache_key(target.key),
        [&] {
          return std::make_shared<const TransitionFaultList>(
              TransitionFaultList::collapsed(*target.netlist));
        },
        [](const TransitionFaultList& f) { return f.footprint_bytes(); });
    const std::shared_ptr<const double> calibration =
        cache_.get_or_compute<double>(
            "calibration",
            calibration_cache_key(target.key, driver.key, config.calibration),
            [&] {
              return std::make_shared<const double>(
                  measure_swa_func(*target.netlist, *driver.netlist,
                                   config.calibration, jobs_)
                      .peak_percent);
            },
            [](const double&) { return std::uint64_t{sizeof(double)}; });
    artifacts.swa_func_percent = *calibration;
  }
  FBT_OBS_HIST_RECORD_LOG("serve.request_cache_ms", ms_since(cache_t0));

  // Run the flow as a task on the shared pool, recording its events into
  // the request's own journal and streaming them while it executes. The
  // request journal joins the caller's journal when the run ends, so the
  // daemon's --journal output keeps every event, one request after another.
  // queue-wait is submit -> first instruction of the task (written by the
  // worker, read only after wait() synchronizes on task completion);
  // compute is the task's own run time.
  const bool stream = emit != nullptr && request.stream_progress;
  obs::EventJournal request_journal;
  std::size_t cursor = 0;
  std::optional<BistExperimentResult> result;
  const auto submit_t = std::chrono::steady_clock::now();
  std::chrono::steady_clock::time_point compute_t0 = submit_t;
  const jobs::TaskHandle handle = jobs_.submit([&] {
    compute_t0 = std::chrono::steady_clock::now();
    {
      obs::JournalScope journal_scope(request_journal);
      FBT_OBS_PHASE("request_compute");
      result.emplace(run_bist_experiment(config, jobs_, artifacts));
    }
    FBT_OBS_HIST_RECORD_LOG("serve.request_compute_ms", ms_since(compute_t0));
  });
  while (!handle.done()) {
    if (stream) drain_journal(request_journal, cursor, id, emit);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  obs::journal().append(request_journal);
  jobs_.wait(handle);  // rethrows a failed run
  const double queue_ms =
      std::chrono::duration<double, std::milli>(compute_t0 - submit_t).count();
  FBT_OBS_HIST_RECORD_LOG("serve.request_queue_ms", queue_ms);
  if (stream) drain_journal(request_journal, cursor, id, emit);

  ExperimentSummary summary;
  summary.target = request.target.empty() ? "inline" : request.target;
  summary.swa_func_percent = result->swa_func;
  summary.num_tests = result->run.num_tests;
  summary.num_seeds = result->run.num_seeds;
  summary.detected = result->detected;
  summary.num_faults = result->faults.size();
  summary.fault_coverage_percent = result->fault_coverage_percent;
  summary.overhead_percent = result->overhead_percent;
  summary.detect_count = std::move(result->detect_count);
  summary.first_detect = std::move(result->run.first_detect);

  auto stored = std::make_shared<const ExperimentSummary>(std::move(summary));
  const std::uint64_t bytes = stored->footprint_bytes();
  return *std::static_pointer_cast<const ExperimentSummary>(
      cache_.insert(exp_id, std::move(stored), bytes));
}

bool ExperimentService::handle_line(
    const std::string& line,
    const std::function<void(const std::string&)>& emit) {
  Request request;
  std::string error;
  if (!parse_request(line, request, error)) {
    emit(render_error(request.id, error));
    return true;
  }
  switch (request.type) {
    case RequestType::kPing:
      emit(render_pong(request.id));
      return true;
    case RequestType::kStats:
      emit(render_stats(request.id, stats_snapshot()));
      return true;
    case RequestType::kShutdown:
      emit(render_bye(request.id));
      return false;
    case RequestType::kExperiment:
      break;
  }
  const auto start = std::chrono::steady_clock::now();
  FBT_OBS_PHASE("serve_request");
  try {
    bool hit = false;
    std::string key_hex;
    const ExperimentSummary summary =
        run_experiment(request.experiment, &hit, emit, request.id, &key_hex);
    const double elapsed_ms = ms_since(start);
    const auto render_t0 = std::chrono::steady_clock::now();
    const std::string report = compact_json(render_run_report(
        obs::collect_run_report(
            "fbt_serve", {{"target", summary.target},
                          {"cache", hit ? "hit" : "miss"}})));
    const std::string line_out =
        render_result(request.id, summary, hit, key_hex, elapsed_ms, report);
    FBT_OBS_HIST_RECORD_LOG("serve.request_render_ms", ms_since(render_t0));
    emit(line_out);
    // Totals keyed cold vs warm: the two populations differ by orders of
    // magnitude, so one merged histogram would bury the warm path.
    if (hit) {
      FBT_OBS_HIST_RECORD_LOG("serve.request_total_warm_ms", ms_since(start));
    } else {
      FBT_OBS_HIST_RECORD_LOG("serve.request_total_cold_ms", ms_since(start));
    }
  } catch (const std::exception& e) {
    emit(render_error(request.id, e.what()));
  }
  return true;
}

SocketServer::SocketServer(ExperimentService& service, std::string socket_path)
    : service_(service), path_(std::move(socket_path)) {}

SocketServer::~SocketServer() {
  request_stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  join_all();
  ::unlink(path_.c_str());
}

std::size_t SocketServer::tracked_connections() const {
  std::lock_guard lock(mutex_);
  return connections_.size();
}

void SocketServer::reap_finished() {
  std::vector<std::thread> finished;
  {
    std::lock_guard lock(mutex_);
    const auto done = std::partition(
        connections_.begin(), connections_.end(),
        [](const Connection& c) { return c.fd >= 0; });
    for (auto it = done; it != connections_.end(); ++it) {
      finished.push_back(std::move(it->thread));
    }
    connections_.erase(done, connections_.end());
  }
  for (std::thread& t : finished) t.join();
}

void SocketServer::join_all() {
  std::vector<Connection> all;
  {
    std::lock_guard lock(mutex_);
    all.swap(connections_);
  }
  for (Connection& c : all) c.thread.join();
}

bool SocketServer::start(std::string& error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path_.size() >= sizeof(addr.sun_path)) {
    error = "socket path too long: " + path_;
    return false;
  }
  std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error = std::string("socket(): ") + std::strerror(errno);
    return false;
  }
  ::unlink(path_.c_str());  // stale socket from a previous run
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    error = std::string("bind/listen(") + path_ + "): " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  return true;
}

void SocketServer::serve_forever() {
  while (!stop_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stop_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      break;
    }
    reap_finished();
    std::lock_guard lock(mutex_);
    // The handler's final step takes mutex_, so it cannot look for its
    // entry before the entry exists.
    connections_.push_back({fd, std::thread([this, fd] {
                              handle_connection(fd);
                            })});
  }
  join_all();
}

void SocketServer::request_stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  std::lock_guard lock(mutex_);
  for (const Connection& c : connections_) {
    if (c.fd >= 0) ::shutdown(c.fd, SHUT_RDWR);
  }
}

void SocketServer::handle_connection(int fd) {
  const auto emit = [fd](const std::string& line) {
    std::string framed = line;
    framed.push_back('\n');
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n =
          ::send(fd, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;  // peer gone; drop the rest of this response
      sent += static_cast<std::size_t>(n);
    }
  };
  std::string buffer;
  char chunk[4096];
  bool keep_serving = true;
  while (keep_serving && !stop_.load(std::memory_order_acquire)) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos && keep_serving;
         nl = buffer.find('\n', start)) {
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      keep_serving = service_.handle_line(line, emit);
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxRequestLineBytes) {
      emit(render_error("", "request line exceeds " +
                                std::to_string(kMaxRequestLineBytes) +
                                " bytes without a newline"));
      break;
    }
  }
  {
    // Release the fd under the lock before closing it: once closed, the
    // kernel may hand its number to a new connection, which request_stop()
    // must not shut down on this connection's behalf.
    std::lock_guard lock(mutex_);
    for (Connection& c : connections_) {
      if (c.fd == fd) c.fd = -1;
    }
  }
  ::close(fd);
  if (!keep_serving) request_stop();
}

}  // namespace fbt::serve
