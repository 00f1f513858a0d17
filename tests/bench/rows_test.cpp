// The paper-table row runner (bench/rows.hpp): rows give the same results,
// the same appended event journal and the same work counters on a
// one-worker and a four-worker pool. The four-worker leg runs rows
// concurrently, so this suite also runs under TSan in CI.
#include "rows.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flow/bist_flow.hpp"
#include "jobs/job_system.hpp"
#include "obs/event_journal.hpp"
#include "obs/metrics.hpp"

namespace fbt::bench {
namespace {

struct RowSpec {
  const char* target;
  const char* driver;
};

// Small targets, each with the buffers block and one constrained driver
// whose outputs cover the target's inputs.
const RowSpec kRows[] = {
    {"s298", "buffers"}, {"s298", "s382"},  {"s344", "buffers"},
    {"s344", "s344"},    {"s382", "buffers"}, {"s382", "s298"},
};

struct RowOutcome {
  std::vector<std::uint32_t> detect_count;
  std::size_t num_tests = 0;
  std::size_t num_seeds = 0;
  double swa_func = 0.0;
  double peak_swa = 0.0;
  bool operator==(const RowOutcome&) const = default;
};

struct TableRun {
  std::vector<RowOutcome> rows;
  std::string ndjson;
  std::map<std::string, std::uint64_t> counter_deltas;  ///< outside jobs.*
};

std::map<std::string, std::uint64_t> work_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const obs::CounterSample& c : obs::registry().snapshot().counters) {
    if (c.name.rfind("jobs.", 0) != 0) out[c.name] = c.value;
  }
  return out;
}

TableRun run_table(std::size_t workers) {
  jobs::JobSystem pool(workers);
  TableRun out;
  obs::EventJournal sink;
  const obs::JournalScope scope(sink);
  const std::map<std::string, std::uint64_t> before = work_counters();
  const auto results =
      run_rows(pool, std::size(kRows), [&pool](std::size_t i) {
        const BistExperimentResult r = run_bist_experiment(
            table4_row_config(kRows[i].target, kRows[i].driver, /*L=*/96,
                              /*calib_seqs=*/2, /*calib_len=*/200),
            pool, ExperimentArtifacts{});
        return RowOutcome{r.detect_count, r.run.num_tests, r.run.num_seeds,
                          r.swa_func, r.run.peak_swa};
      });
  for (const auto& result : results) out.rows.push_back(result.value);
  for (const auto& [name, value] : work_counters()) {
    const auto it = before.find(name);
    out.counter_deltas[name] = value - (it == before.end() ? 0 : it->second);
  }
  out.ndjson = sink.ndjson();
  return out;
}

TEST(RunRows, ResultsJournalAndCountersDoNotDependOnPoolSize) {
  const TableRun serial = run_table(1);
  const TableRun pooled = run_table(4);
  ASSERT_EQ(serial.rows.size(), std::size(kRows));
  EXPECT_TRUE(serial.rows == pooled.rows);
  EXPECT_EQ(serial.ndjson, pooled.ndjson);
  EXPECT_EQ(serial.counter_deltas, pooled.counter_deltas);
#if FBT_OBS_ENABLED
  EXPECT_FALSE(serial.ndjson.empty());
  EXPECT_GT(serial.counter_deltas.at("flow.experiments_run"), 0u);
#endif
}

TEST(RunRows, ReturnsResultsInRowOrder) {
  jobs::JobSystem pool(4);
  const auto results =
      run_rows(pool, 64, [](std::size_t i) { return i * i; });
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].value, i * i);
    EXPECT_GE(results[i].seconds, 0.0);
  }
}

}  // namespace
}  // namespace fbt::bench
