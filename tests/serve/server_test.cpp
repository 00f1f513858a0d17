#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "circuits/registry.hpp"
#include "flow/bist_flow.hpp"
#include "jobs/job_system.hpp"
#include "netlist/bench_io.hpp"
#include "obs/event_journal.hpp"
#include "serve/protocol.hpp"

namespace fbt::serve {
namespace {

// The CI container may report one core; size the shared pool explicitly so
// requests genuinely multiplex (the >= 4 concurrent-request acceptance runs
// under TSan in CI).
constexpr std::size_t kPool = 4;

ExperimentRequest small_request() {
  ExperimentRequest request;
  request.target = "s298";
  request.driver = "buffers";
  request.config.target_name = "s298";
  request.config.driver_name = "buffers";
  request.config.calibration.num_sequences = 4;
  request.config.calibration.sequence_length = 400;
  request.config.generation.segment_length = 200;
  request.config.generation.max_segment_failures = 2;
  request.config.generation.max_sequence_failures = 2;
  request.config.generation.rng_seed = 19;
  return request;
}

struct Fixture {
  jobs::JobSystem jobs{kPool};
  ArtifactCache cache;
  ExperimentService service{jobs, cache};
};

TEST(ExperimentService, PingPongAndStats) {
  Fixture fx;
  std::vector<std::string> lines;
  const auto emit = [&lines](const std::string& l) { lines.push_back(l); };

  EXPECT_TRUE(fx.service.handle_line(
      "{\"type\": \"ping\", \"id\": \"p1\"}", emit));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\": \"pong\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"id\": \"p1\""), std::string::npos);

  lines.clear();
  EXPECT_TRUE(fx.service.handle_line(
      "{\"type\": \"stats\", \"id\": \"s1\"}", emit));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\": \"stats\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"cache_hits\": 0"), std::string::npos);
  EXPECT_NE(lines[0].find("\"cache_misses\": 0"), std::string::npos);
  // The enriched stats response: per-segment latency summaries (cold/warm
  // keyed separately) and the scheduler snapshot of the shared pool.
  EXPECT_NE(lines[0].find("\"latency\": {"), std::string::npos);
  EXPECT_NE(lines[0].find("\"cold\": {"), std::string::npos);
  EXPECT_NE(lines[0].find("\"warm\": {"), std::string::npos);
  EXPECT_NE(lines[0].find("\"queue\": {"), std::string::npos);
  EXPECT_NE(lines[0].find("\"compute\": {"), std::string::npos);
  EXPECT_NE(lines[0].find("\"render\": {"), std::string::npos);
  EXPECT_NE(lines[0].find("\"p99_clamped\": "), std::string::npos);
  EXPECT_NE(lines[0].find("\"scheduler\": {\"workers\": 4"),
            std::string::npos);
}

TEST(ExperimentService, FreezeStatsPinsThePublishedSnapshot) {
  // The SIGTERM drain fix: the shutdown path freezes the stats BEFORE the
  // graceful drain, so requests completing during the drain cannot make the
  // final stats responses disagree with the run report. First freeze wins.
  Fixture fx;
  const ExperimentRequest request = small_request();
  bool hit = false;
  fx.service.run_experiment(request, &hit);
  fx.service.freeze_stats();
  const ServiceStats frozen = fx.service.stats_snapshot();
  EXPECT_EQ(frozen.requests_total, 1u);

  // A request that completes after the freeze (the in-flight drain): the
  // live counter moves, the published snapshot does not.
  fx.service.run_experiment(request, &hit);
  EXPECT_EQ(fx.service.requests_total(), 2u);
  EXPECT_EQ(fx.service.collect_stats().requests_total, 2u);
  EXPECT_EQ(fx.service.stats_snapshot().requests_total, 1u);

  // Later freezes are no-ops.
  fx.service.freeze_stats();
  EXPECT_EQ(fx.service.stats_snapshot().requests_total, 1u);

  // The protocol line rendered from the frozen snapshot agrees.
  std::vector<std::string> lines;
  const auto emit = [&lines](const std::string& l) { lines.push_back(l); };
  EXPECT_TRUE(fx.service.handle_line(
      "{\"type\": \"stats\", \"id\": \"s2\"}", emit));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"requests_total\": 1"), std::string::npos);
}

TEST(ExperimentService, MalformedRequestEmitsError) {
  Fixture fx;
  std::vector<std::string> lines;
  const auto emit = [&lines](const std::string& l) { lines.push_back(l); };

  EXPECT_TRUE(fx.service.handle_line("this is not json", emit));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\": \"error\""), std::string::npos);

  lines.clear();
  // Valid JSON, unknown type: still an error, still keeps serving.
  EXPECT_TRUE(fx.service.handle_line(
      "{\"type\": \"frobnicate\", \"id\": \"x\"}", emit));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\": \"error\""), std::string::npos);

  lines.clear();
  // Experiment with no target and no inline netlist.
  EXPECT_TRUE(fx.service.handle_line(
      "{\"type\": \"experiment\", \"id\": \"x\"}", emit));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\": \"error\""), std::string::npos);
}

TEST(ExperimentService, ShutdownRequestStopsServing) {
  Fixture fx;
  std::vector<std::string> lines;
  const auto emit = [&lines](const std::string& l) { lines.push_back(l); };
  EXPECT_FALSE(fx.service.handle_line(
      "{\"type\": \"shutdown\", \"id\": \"bye\"}", emit));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\": \"bye\""), std::string::npos);
}

TEST(ExperimentService, ColdRunMatchesBatchFlow) {
  Fixture fx;
  const ExperimentRequest request = small_request();
  bool hit = true;
  const ExperimentSummary served = fx.service.run_experiment(request, &hit);
  EXPECT_FALSE(hit);

  const BistExperimentResult batch = run_bist_experiment(request.config);
  EXPECT_EQ(served.num_tests, batch.run.num_tests);
  EXPECT_EQ(served.num_seeds, batch.run.num_seeds);
  EXPECT_EQ(served.detected, batch.detected);
  EXPECT_EQ(served.num_faults, batch.faults.size());
  EXPECT_DOUBLE_EQ(served.fault_coverage_percent,
                   batch.fault_coverage_percent);
  EXPECT_DOUBLE_EQ(served.swa_func_percent, batch.swa_func);
  // Bit-identity down to the per-fault detect matrix and attribution.
  EXPECT_EQ(hash_detect_counts(served.detect_count),
            hash_detect_counts(batch.detect_count));
  EXPECT_EQ(hash_first_detects(served.first_detect),
            hash_first_detects(batch.run.first_detect));
}

TEST(ExperimentService, WarmHitIsBitIdenticalToColdMiss) {
  Fixture fx;
  const ExperimentRequest request = small_request();
  bool hit = true;
  const ExperimentSummary cold = fx.service.run_experiment(request, &hit);
  ASSERT_FALSE(hit);
  const ExperimentSummary warm = fx.service.run_experiment(request, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(hash_detect_counts(cold.detect_count),
            hash_detect_counts(warm.detect_count));
  EXPECT_EQ(hash_first_detects(cold.first_detect),
            hash_first_detects(warm.first_detect));
  EXPECT_EQ(cold.num_tests, warm.num_tests);
  EXPECT_DOUBLE_EQ(cold.fault_coverage_percent, warm.fault_coverage_percent);
  EXPECT_GE(fx.cache.stats().hits, 1u);
}

TEST(ExperimentService, ConfigChangeIsAFreshMiss) {
  Fixture fx;
  ExperimentRequest request = small_request();
  bool hit = true;
  const ExperimentSummary first = fx.service.run_experiment(request, &hit);
  ASSERT_FALSE(hit);
  request.config.generation.rng_seed += 1;
  const ExperimentSummary second = fx.service.run_experiment(request, &hit);
  EXPECT_FALSE(hit);
  // Different seed, different run (detect attribution differs with
  // overwhelming probability on this circuit).
  EXPECT_NE(hash_first_detects(first.first_detect),
            hash_first_detects(second.first_detect));
}

TEST(ExperimentService, ConcurrentRequestsMultiplexOnePool) {
  // The TSan acceptance: >= 4 concurrent experiment requests share one
  // JobSystem without deadlock, and every result is bit-identical.
  Fixture fx;
  const ExperimentRequest request = small_request();
  constexpr std::size_t kClients = 4;
  std::vector<ExperimentSummary> results(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&fx, &request, &results, c] {
      bool h = false;
      results[c] = fx.service.run_experiment(request, &h);
    });
  }
  for (std::thread& t : clients) t.join();

  const std::string detect = hash_detect_counts(results[0].detect_count);
  const std::string first = hash_first_detects(results[0].first_detect);
  for (std::size_t c = 1; c < kClients; ++c) {
    EXPECT_EQ(hash_detect_counts(results[c].detect_count), detect) << c;
    EXPECT_EQ(hash_first_detects(results[c].first_detect), first) << c;
  }
  EXPECT_EQ(fx.service.requests_total(), kClients);
}

TEST(ExperimentService, ConcurrentStreamsCarryOnlyTheirOwnEvents) {
  // Two targets with different fault counts stream side by side. Each
  // request records into its own journal, so every construct_started a
  // client receives names its own target's fault count, and the process
  // journal receives every streamed event once the requests end.
  Fixture fx;
  const std::vector<std::string> targets = {"s27", "s298", "s27", "s298"};
  std::vector<ExperimentSummary> results(targets.size());
  std::vector<std::vector<std::string>> streams(targets.size());
  const std::size_t journal_before = obs::journal().size();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < targets.size(); ++c) {
    clients.emplace_back([&, c] {
      ExperimentRequest request = small_request();
      request.target = targets[c];
      request.config.target_name = targets[c];
      request.config.generation.rng_seed = 19 + c;
      request.stream_progress = true;
      bool hit = true;
      results[c] = fx.service.run_experiment(
          request, &hit,
          [&streams, c](const std::string& l) { streams[c].push_back(l); },
          "client" + std::to_string(c));
    });
  }
  for (std::thread& t : clients) t.join();

  ASSERT_NE(results[0].num_faults, results[1].num_faults);
  std::size_t streamed = 0;
  for (std::size_t c = 0; c < targets.size(); ++c) {
    const std::string own_faults =
        "\"faults\": " + std::to_string(results[c].num_faults) + ",";
    std::size_t starts = 0;
    for (const std::string& line : streams[c]) {
      EXPECT_NE(line.find("\"id\": \"client" + std::to_string(c) + "\""),
                std::string::npos);
      if (line.find("\"type\": \"construct_started\"") == std::string::npos) {
        continue;
      }
      ++starts;
      EXPECT_NE(line.find(own_faults), std::string::npos)
          << targets[c] << ": " << line;
    }
#if FBT_OBS_ENABLED
    EXPECT_EQ(starts, 1u) << targets[c];
#endif
    streamed += streams[c].size();
  }
  EXPECT_EQ(obs::journal().size() - journal_before, streamed);
}

TEST(ExperimentService, HandleLineExperimentEmitsResultWithReport) {
  Fixture fx;
  std::vector<std::string> lines;
  const auto emit = [&lines](const std::string& l) { lines.push_back(l); };
  const std::string line =
      "{\"type\": \"experiment\", \"id\": \"e1\", \"target\": \"s298\", "
      "\"driver\": \"buffers\", \"stream_progress\": false, \"config\": "
      "{\"cal_sequences\": 4, \"cal_length\": 400, \"segment_length\": 200, "
      "\"max_segment_failures\": 2, \"max_sequence_failures\": 2, "
      "\"rng_seed\": 19}}";
  EXPECT_TRUE(fx.service.handle_line(line, emit));
  ASSERT_FALSE(lines.empty());
  const std::string& result = lines.back();
  EXPECT_NE(result.find("\"type\": \"result\""), std::string::npos);
  EXPECT_NE(result.find("\"id\": \"e1\""), std::string::npos);
  EXPECT_NE(result.find("\"cache\": \"miss\""), std::string::npos);
  EXPECT_NE(result.find("\"detect_hash\": \""), std::string::npos);
  EXPECT_NE(result.find("\"report\": {"), std::string::npos);
  // NDJSON framing: the embedded report must be compacted to one line.
  EXPECT_EQ(result.find('\n'), std::string::npos);

  lines.clear();
  EXPECT_TRUE(fx.service.handle_line(line, emit));
  EXPECT_NE(lines.back().find("\"cache\": \"hit\""), std::string::npos);
}

TEST(ExperimentService, InlineNetlistSharesKeyWithTextualVariant) {
  Fixture fx;
  const std::string bench = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
                            "f = DFF(y)\ny = AND(a, b)\n";
  const std::string noisy = "# same circuit\nINPUT(a)\n INPUT(b)\n"
                            "OUTPUT(y)\nf = DFF(y)\ny = AND(a,b)\n";
  ExperimentRequest request = small_request();
  request.target = "inline-a";
  request.netlist_bench = bench;
  request.config.calibration.num_sequences = 2;
  request.config.calibration.sequence_length = 64;
  request.config.generation.segment_length = 32;
  bool hit = true;
  const ExperimentSummary cold = fx.service.run_experiment(request, &hit);
  EXPECT_FALSE(hit);
  // The same circuit spelled differently canonicalizes to the same content
  // key -- a warm hit.
  request.target = "inline-b";
  request.netlist_bench = noisy;
  const ExperimentSummary warm = fx.service.run_experiment(request, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(hash_detect_counts(cold.detect_count),
            hash_detect_counts(warm.detect_count));
}

/// The quoted string value of `"key": "..."` in a response line.
std::string string_field(const std::string& line, const std::string& key) {
  const std::string open = "\"" + key + "\": \"";
  const std::size_t at = line.find(open);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + open.size();
  return line.substr(begin, line.find('"', begin) - begin);
}

/// Last response line of an s298 experiment request whose config carries
/// `extra` after the fixed fields.
std::string serve_s298(Fixture& fx, const std::string& extra) {
  std::vector<std::string> lines;
  fx.service.handle_line(
      "{\"type\": \"experiment\", \"id\": \"h\", \"target\": \"s298\", "
      "\"stream_progress\": false, \"config\": {\"cal_sequences\": 4, "
      "\"cal_length\": 400, \"segment_length\": 200, "
      "\"max_segment_failures\": 2, \"max_sequence_failures\": 2, "
      "\"rng_seed\": 19" +
          extra + "}}",
      [&lines](const std::string& l) { lines.push_back(l); });
  return lines.empty() ? std::string() : lines.back();
}

TEST(ExperimentService, HugeNumThreadsIsServedLikeTheDefault) {
  // The protocol no longer reads num_threads; a value that once sized a
  // per-thread simulator array must be served cold with the default's
  // results, and it keys the same experiment as the default.
  Fixture fx;
  const std::string huge = serve_s298(fx, ", \"num_threads\": 100000");
  EXPECT_EQ(string_field(huge, "type"), "result") << huge;
  EXPECT_EQ(string_field(huge, "cache"), "miss");
  EXPECT_EQ(string_field(serve_s298(fx, ""), "cache"), "hit");

  Fixture fresh;
  const std::string plain = serve_s298(fresh, "");
  EXPECT_EQ(string_field(plain, "cache"), "miss");
  EXPECT_FALSE(string_field(plain, "detect_hash").empty()) << plain;
  EXPECT_EQ(string_field(huge, "detect_hash"),
            string_field(plain, "detect_hash"));
  EXPECT_EQ(string_field(huge, "first_detect_hash"),
            string_field(plain, "first_detect_hash"));
}

TEST(ExperimentService, OutOfRangeConfigGetsAnErrorResponse) {
  // 2^32 + 5 once narrowed to a 5-stage LFSR and was served and cached as
  // that; a segment length past the cap once went straight into reserve().
  Fixture fx;
  for (const std::string& config :
       {std::string("\"tpg_lfsr_stages\": 4294967301"),
        "\"segment_length\": " + std::to_string(kMaxSegmentLength + 2)}) {
    std::vector<std::string> lines;
    EXPECT_TRUE(fx.service.handle_line(
        "{\"type\": \"experiment\", \"id\": \"r\", \"target\": "
        "\"s298\", \"stream_progress\": false, \"config\": {" +
            config + "}}",
        [&lines](const std::string& l) { lines.push_back(l); }));
    ASSERT_EQ(lines.size(), 1u) << config;
    EXPECT_EQ(string_field(lines[0], "type"), "error") << lines[0];
  }
  EXPECT_EQ(fx.cache.stats().entries, 0u);
}

/// Connects a client to `path`; -1 on failure. Reads time out after 30 s so
/// a server that never answers fails the test instead of hanging it.
int connect_client(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends all of `data`, stopping early if the peer closes.
void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

/// Reads until the peer closes the connection (EOF or reset).
std::string read_until_closed(int fd) {
  std::string received;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return received;
    received.append(chunk, static_cast<std::size_t>(n));
  }
}

/// A SocketServer running its accept loop on a thread; stopped and joined
/// on destruction, so a failed assertion cannot leave the thread joinable.
struct RunningServer {
  RunningServer(ExperimentService& service, const std::string& path)
      : server(service, path) {}
  ~RunningServer() {
    server.request_stop();
    if (accept_loop.joinable()) accept_loop.join();
  }

  SocketServer server;
  std::thread accept_loop;
};

TEST(SocketServer, OversizedRequestLineGetsOneErrorAndIsClosed) {
  Fixture fx;
  RunningServer running(fx.service, ::testing::TempDir() + "fbt_serve_test_" +
                                        std::to_string(::getpid()) + ".sock");
  std::string error;
  ASSERT_TRUE(running.server.start(error)) << error;
  running.accept_loop =
      std::thread([&running] { running.server.serve_forever(); });
  const std::string& path = running.server.socket_path();

  // One byte past the bound and never a newline: the daemon must answer
  // with a single error line and hang up instead of buffering forever.
  const int fd = connect_client(path);
  ASSERT_GE(fd, 0);
  send_all(fd, std::string(kMaxRequestLineBytes + 1, 'x'));
  const std::string reply = read_until_closed(fd);
  ::close(fd);
  EXPECT_NE(reply.find("\"type\": \"error\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("without a newline"), std::string::npos) << reply;
  EXPECT_EQ(std::count(reply.begin(), reply.end(), '\n'), 1) << reply;
  EXPECT_TRUE(reply.ends_with('\n')) << reply;

  // The daemon keeps serving other connections.
  const int next = connect_client(path);
  ASSERT_GE(next, 0);
  send_all(next, "{\"type\": \"ping\", \"id\": \"after\"}\n");
  ::shutdown(next, SHUT_WR);
  EXPECT_NE(read_until_closed(next).find("\"type\": \"pong\""),
            std::string::npos);
  ::close(next);
}

TEST(SocketServer, FinishedConnectionsAreReaped) {
  Fixture fx;
  RunningServer running(fx.service, ::testing::TempDir() + "fbt_serve_reap_" +
                                        std::to_string(::getpid()) + ".sock");
  std::string error;
  ASSERT_TRUE(running.server.start(error)) << error;
  running.accept_loop =
      std::thread([&running] { running.server.serve_forever(); });
  const std::string& path = running.server.socket_path();

  // The server closes its end only after releasing the connection, so each
  // EOF below means that connection has finished; the next accept joins it.
  for (int i = 0; i < 200; ++i) {
    const int fd = connect_client(path);
    ASSERT_GE(fd, 0) << i;
    send_all(fd, "{\"type\": \"ping\", \"id\": \"r\"}\n");
    ::shutdown(fd, SHUT_WR);
    ASSERT_NE(read_until_closed(fd).find("\"type\": \"pong\""),
              std::string::npos)
        << i;
    ::close(fd);
  }
  EXPECT_LE(running.server.tracked_connections(), 1u);
}

TEST(SocketServer, RequestLineBoundFitsEveryRegistryCircuitInline) {
  // An inline netlist_bench carries write_bench text with each newline
  // escaped as two characters; every registry circuit must fit with room to
  // spare for the rest of the request.
  for (const BenchmarkSpec& spec : benchmark_registry()) {
    const std::string text = write_bench(load_benchmark(spec.name));
    std::size_t escaped = text.size();
    for (const char c : text) escaped += c == '\n' ? 1 : 0;
    EXPECT_LT(2 * escaped, kMaxRequestLineBytes) << spec.name;
  }
}

}  // namespace
}  // namespace fbt::serve
