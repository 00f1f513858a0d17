// fbt_serve: the long-running experiment daemon and its one-shot client.
//
//   fbt_serve start --socket <path> [--threads N] [--cache-mb M]
//                   [--report <REPORT_serve.json>] [--journal <f.ndjson>]
//                   [--trace <trace.json>]
//       Binds an AF_UNIX socket and serves NDJSON experiment requests until
//       SIGINT/SIGTERM or a {"type":"shutdown"} request. On a signal the
//       service stats are frozen BEFORE the drain starts, so the final
//       `stats` responses and the run report agree (in-flight requests still
//       complete, they just no longer move the published numbers). On
//       graceful exit it drains in-flight requests, flushes the NDJSON
//       journal, writes a run report, and (with --trace) exports
//       the Chrome trace of everything the daemon executed.
//
//   fbt_serve request --socket <path> --target <name> [--driver <name>]
//                     [--id <id>] [--json <raw request line>]
//                     [--no-progress] [--cal-sequences N] [--cal-length N]
//                     [--segment-length N] [--max-segment-failures N]
//                     [--max-sequence-failures N] [--rng-seed N]
//       Connects, sends one experiment request (or the raw --json line),
//       prints every response line, and exits when the result (or an error)
//       arrives. Exit codes: 0 result received, 1 server error, 2 usage/IO.
//
//   fbt_serve watch --socket <path> [--interval-ms N] [--iterations N]
//                   [--plain]
//       Polls `stats` every interval and renders a terminal dashboard:
//       req/s, cache hit rate, p50/p99 warm+cold latency with the
//       queue/cache/compute/render decomposition, and worker utilization.
//       --interval-ms is 1..3600000 (default 500); --iterations 0..10^9,
//       where 0 (default) polls until the server goes away; --plain
//       suppresses the ANSI clear-screen so output appends (for logs/CI).
//
// Protocol details: src/serve/protocol.hpp. Quickstart: README.md.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/event_journal.hpp"
#include "obs/json.hpp"
#include "obs/phase.hpp"
#include "obs/run_report.hpp"
#include "serve/server.hpp"
#include "serve/shutdown.hpp"
#include "util/cli.hpp"

namespace {

/// Connects to the daemon's AF_UNIX socket. Returns the fd, or -1 after
/// printing a diagnostic (suppressed when `quiet`).
int connect_to(const std::string& socket_path, bool quiet) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    if (!quiet) std::fprintf(stderr, "fbt_serve: socket path too long\n");
    return -1;
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)) != 0) {
    if (!quiet) {
      std::fprintf(stderr, "fbt_serve: cannot connect to %s: %s\n",
                   socket_path.c_str(), std::strerror(errno));
    }
    if (fd >= 0) ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends the whole line (newline appended). False on a short write.
bool send_line(int fd, std::string line) {
  line.push_back('\n');
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent, 0);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Receives until one full response line is buffered. False on EOF first.
bool recv_line(int fd, std::string& line) {
  line.clear();
  char chunk[4096];
  while (line.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    line.append(chunk, static_cast<std::size_t>(n));
  }
  line.erase(line.find('\n'));
  return true;
}

int run_start(const fbt::Cli& cli) {
  const std::string socket_path = cli.get("socket", "/tmp/fbt_serve.sock");
  const auto threads =
      static_cast<std::size_t>(cli.get_int_in("threads", 0, 0, 256));
  const std::uint64_t cache_bytes =
      static_cast<std::uint64_t>(cli.get_int_in("cache-mb", 256, 1, 1048576))
      << 20;
  const std::string report_path = cli.get("report", "REPORT_serve.json");
  const std::string journal_path = cli.get("journal", "JOURNAL_serve.ndjson");
  const std::string trace_path = cli.get("trace", "");

  // Watcher first: its signal mask must be inherited by the pool and the
  // connection threads, so SIGINT/SIGTERM only ever reach sigwait.
  fbt::serve::SocketServer* active_server = nullptr;
  fbt::serve::ExperimentService* active_service = nullptr;
  fbt::serve::GracefulShutdown shutdown(
      [&active_server, &active_service](int sig) {
        std::fprintf(stderr, "fbt_serve: caught signal %d, draining\n", sig);
        // Freeze the published stats before the drain: requests completing
        // during the drain keep flushing into the journal/metrics, but the
        // final `stats` responses and the run report both read this frozen
        // snapshot, so they cannot disagree with each other.
        if (active_service != nullptr) active_service->freeze_stats();
        if (active_server != nullptr) active_server->request_stop();
      });

  fbt::jobs::JobSystem jobs(threads);
  fbt::serve::ArtifactCache cache(cache_bytes);
  fbt::serve::ExperimentService service(jobs, cache);
  fbt::serve::SocketServer server(service, socket_path);
  std::string error;
  if (!server.start(error)) {
    std::fprintf(stderr, "fbt_serve: %s\n", error.c_str());
    return 2;
  }
  active_server = &server;
  active_service = &service;
  std::fprintf(stderr, "fbt_serve: listening on %s (%zu workers)\n",
               socket_path.c_str(), jobs.size());
  server.serve_forever();  // joins connection threads = drains in-flight work
  active_server = nullptr;
  active_service = nullptr;

  // Graceful exit: flush the journal, write the run report (against the
  // frozen stats when a signal froze them, else the final live values), and
  // optionally export the Chrome trace.
  const fbt::serve::ServiceStats stats = service.stats_snapshot();
  fbt::obs::journal().write_ndjson(journal_path);
  fbt::obs::RunReportData report = fbt::obs::collect_run_report(
      "fbt_serve",
      {{"socket", socket_path},
       {"requests_total", std::to_string(stats.requests_total)},
       {"cache_hits", std::to_string(stats.cache_hits)},
       {"cache_misses", std::to_string(stats.cache_misses)},
       {"cache_evictions", std::to_string(stats.cache_evictions)}});
  fbt::obs::write_run_report(report_path, report);
  if (!trace_path.empty()) {
    const std::string trace = fbt::obs::PhaseTrace::instance().chrome_trace_json();
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f != nullptr) {
      std::fwrite(trace.data(), 1, trace.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "fbt_serve: wrote %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "fbt_serve: cannot open %s for writing\n",
                   trace_path.c_str());
    }
  }
  const int sig = shutdown.signal_received();
  std::fprintf(stderr, "fbt_serve: wrote %s, exiting%s\n", report_path.c_str(),
               sig != 0 ? " on signal" : "");
  return 0;
}

std::string build_request_line(const fbt::Cli& cli) {
  if (cli.has("json")) return cli.get("json", "");
  std::string line = "{\"type\": \"experiment\", \"id\": \"" +
                     cli.get("id", "cli") + "\"";
  line += ", \"target\": \"" + cli.get("target", "") + "\"";
  const std::string driver = cli.get("driver", "");
  if (!driver.empty()) line += ", \"driver\": \"" + driver + "\"";
  if (cli.has("no-progress")) line += ", \"stream_progress\": false";
  line += ", \"config\": {";
  line += "\"cal_sequences\": " + std::to_string(cli.get_int("cal-sequences", 4));
  line += ", \"cal_length\": " + std::to_string(cli.get_int("cal-length", 400));
  line += ", \"segment_length\": " +
          std::to_string(cli.get_int("segment-length", 200));
  line += ", \"max_segment_failures\": " +
          std::to_string(cli.get_int("max-segment-failures", 2));
  line += ", \"max_sequence_failures\": " +
          std::to_string(cli.get_int("max-sequence-failures", 2));
  line += ", \"rng_seed\": " + std::to_string(cli.get_int("rng-seed", 19));
  line += "}}";
  return line;
}

int run_request(const fbt::Cli& cli) {
  const std::string socket_path = cli.get("socket", "/tmp/fbt_serve.sock");
  if (!cli.has("json") && cli.get("target", "").empty()) {
    std::fprintf(stderr, "fbt_serve request: --target or --json required\n");
    return 2;
  }
  const int fd = connect_to(socket_path, /*quiet=*/false);
  if (fd < 0) return 2;
  if (!send_line(fd, build_request_line(cli))) {
    std::fprintf(stderr, "fbt_serve: send failed\n");
    ::close(fd);
    return 2;
  }

  // Print response lines until a terminal one ("result", "error", "pong",
  // "stats", "bye") arrives.
  std::string buffer;
  char chunk[4096];
  int status = 2;
  bool done = false;
  while (!done) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos && !done; nl = buffer.find('\n', start)) {
      const std::string response = buffer.substr(start, nl - start);
      start = nl + 1;
      std::printf("%s\n", response.c_str());
      if (response.find("\"type\": \"result\"") != std::string::npos ||
          response.find("\"type\": \"pong\"") != std::string::npos ||
          response.find("\"type\": \"stats\"") != std::string::npos ||
          response.find("\"type\": \"bye\"") != std::string::npos) {
        status = 0;
        done = true;
      } else if (response.find("\"type\": \"error\"") != std::string::npos) {
        status = 1;
        done = true;
      }
    }
    buffer.erase(0, start);
  }
  ::close(fd);
  return status;
}

/// doc[section][key] as a number, 0 when absent (tolerates older daemons
/// whose stats line predates the latency/scheduler sections).
double stat_num(const fbt::obs::JsonValue& doc, const char* section,
                const char* key) {
  const fbt::obs::JsonValue* s = doc.find(section);
  if (s == nullptr) return 0.0;
  const fbt::obs::JsonValue* v = s->find(key);
  return v != nullptr ? v->as_number(0.0) : 0.0;
}

/// One latency summary line: count, p50, p99 ("+" marks a clamped p99 --
/// the true tail exceeded the last histogram bucket).
void print_latency(const char* label, const fbt::obs::JsonValue& doc,
                   const char* key) {
  const fbt::obs::JsonValue* lat = doc.find("latency");
  const fbt::obs::JsonValue* l = lat != nullptr ? lat->find(key) : nullptr;
  if (l == nullptr) return;
  const fbt::obs::JsonValue* clamped = l->find("p99_clamped");
  const bool is_clamped =
      clamped != nullptr && clamped->kind == fbt::obs::JsonValue::Kind::kBool &&
      clamped->boolean;
  std::printf("  %-12s %8.0f reqs   p50 %9.3f ms   p99 %9.3f ms%s\n", label,
              l->find("count") != nullptr ? l->find("count")->as_number(0.0)
                                          : 0.0,
              l->find("p50_ms") != nullptr ? l->find("p50_ms")->as_number(0.0)
                                           : 0.0,
              l->find("p99_ms") != nullptr ? l->find("p99_ms")->as_number(0.0)
                                           : 0.0,
              is_clamped ? "+" : "");
}

int run_watch(const fbt::Cli& cli) {
  const std::string socket_path = cli.get("socket", "/tmp/fbt_serve.sock");
  const std::int64_t interval_ms =
      cli.get_int_in("interval-ms", 500, 1, 3600000);
  const std::int64_t iterations =
      cli.get_int_in("iterations", 0, 0, 1000000000);
  const bool plain = cli.has("plain");

  double prev_requests = -1.0;
  auto prev_time = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; iterations == 0 || i < iterations; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    const int fd = connect_to(socket_path, /*quiet=*/i > 0);
    if (fd < 0) {
      if (i == 0) return 2;
      std::printf("fbt_serve watch: server on %s went away\n",
                  socket_path.c_str());
      return 0;
    }
    std::string line;
    const bool ok = send_line(fd, "{\"type\": \"stats\", \"id\": \"watch-" +
                                      std::to_string(i) + "\"}") &&
                    recv_line(fd, line);
    ::close(fd);
    if (!ok) {
      if (i == 0) {
        std::fprintf(stderr, "fbt_serve watch: no stats response\n");
        return 2;
      }
      std::printf("fbt_serve watch: server on %s went away\n",
                  socket_path.c_str());
      return 0;
    }
    fbt::obs::JsonValue doc;
    std::string error;
    if (!fbt::obs::json_parse(line, doc, error)) {
      std::fprintf(stderr, "fbt_serve watch: bad stats line: %s\n",
                   error.c_str());
      return 1;
    }

    const fbt::obs::JsonValue* req = doc.find("requests_total");
    const double requests = req != nullptr ? req->as_number(0.0) : 0.0;
    const auto now = std::chrono::steady_clock::now();
    const double dt_s =
        std::chrono::duration<double>(now - prev_time).count();
    const double rate = prev_requests >= 0.0 && dt_s > 0.0
                            ? (requests - prev_requests) / dt_s
                            : 0.0;
    prev_requests = requests;
    prev_time = now;

    const double hits =
        doc.find("cache_hits") != nullptr
            ? doc.find("cache_hits")->as_number(0.0) : 0.0;
    const double misses =
        doc.find("cache_misses") != nullptr
            ? doc.find("cache_misses")->as_number(0.0) : 0.0;
    const double lookups = hits + misses;

    if (!plain) std::printf("\033[H\033[2J");
    std::printf("fbt_serve watch -- %s\n", socket_path.c_str());
    std::printf("requests:  %.0f total, %.1f req/s\n", requests, rate);
    std::printf("cache:     %.1f%% hit rate (%.0f hits / %.0f misses)\n",
                lookups > 0.0 ? 100.0 * hits / lookups : 0.0, hits, misses);
    std::printf("latency (p99 marked + when clamped to the last bucket):\n");
    print_latency("cold total", doc, "cold");
    print_latency("warm total", doc, "warm");
    print_latency("queue", doc, "queue");
    print_latency("cache", doc, "cache_lookup");
    print_latency("compute", doc, "compute");
    print_latency("render", doc, "render");
    std::printf("scheduler: %.0f workers, %.1f%% utilization, depth %.0f\n",
                stat_num(doc, "scheduler", "workers"),
                100.0 * stat_num(doc, "scheduler", "utilization"),
                stat_num(doc, "scheduler", "queue_depth"));
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const fbt::Cli cli(argc, argv);
  if (cli.positional().empty()) {
    std::fprintf(stderr,
                 "usage: fbt_serve start|request|watch [--socket <path>] ...\n");
    return 2;
  }
  const std::string& mode = cli.positional()[0];
  if (mode == "start") return run_start(cli);
  if (mode == "request") return run_request(cli);
  if (mode == "watch") return run_watch(cli);
  std::fprintf(stderr, "fbt_serve: unknown mode \"%s\"\n", mode.c_str());
  return 2;
}
