// The TPDF engine processes fault batches incrementally (bench_table2_2_4_6
// feeds it longest paths in tranches): transition-fault ATPG results and
// tests must carry over, and verdicts must match a single-shot run.
#include <gtest/gtest.h>

#include "atpg/tpdf_engine.hpp"
#include "circuits/s27.hpp"
#include "paths/path.hpp"

namespace fbt {
namespace {

std::vector<PathDelayFault> s27_faults() {
  const Netlist nl = make_s27();
  const PathEnumeration e = enumerate_all_paths(nl, 1000);
  std::vector<PathDelayFault> faults;
  for (const Path& p : e.paths) {
    faults.push_back({p, true});
    faults.push_back({p, false});
  }
  return faults;
}

TEST(TpdfIncremental, BatchedRunMatchesSingleShot) {
  const Netlist nl = make_s27();
  const auto faults = s27_faults();
  ASSERT_EQ(faults.size(), 56u);

  TpdfEngineConfig cfg;
  cfg.rng_seed = 99;
  TpdfEngine single(nl, cfg);
  const TpdfRunReport whole = single.run(faults);

  // Transition-fault tests are the first tests of every report; the rest
  // are the batch's own TPDF tests.
  const auto tf_tests = [](const TpdfRunReport& r) {
    return r.tests.size() - r.detected_heuristic - r.detected_bnb;
  };

  TpdfEngine batched(nl, cfg);
  std::size_t detected = 0;
  std::size_t undetectable = 0;
  std::size_t aborted = 0;
  std::size_t tf_count = 0;
  for (std::size_t start = 0; start < faults.size(); start += 14) {
    const std::size_t end = std::min(faults.size(), start + 14);
    const std::vector<PathDelayFault> batch(faults.begin() + start,
                                            faults.begin() + end);
    const TpdfRunReport r = batched.run(batch);
    detected += r.detected;
    undetectable += r.undetectable;
    aborted += r.aborted;
    // Each transition fault is targeted once, in first-appearance order,
    // so the batches grow a prefix of the single-shot transition-fault tests.
    tf_count = tf_tests(r);
    ASSERT_LE(tf_count, tf_tests(whole));
    for (std::size_t k = 0; k < tf_count; ++k) {
      EXPECT_EQ(r.tests[k].scan_state, whole.tests[k].scan_state) << k;
      EXPECT_EQ(r.tests[k].v1, whole.tests[k].v1) << k;
      EXPECT_EQ(r.tests[k].v2, whole.tests[k].v2) << k;
    }
  }
  // s27 resolves fully either way; the verdict totals must agree.
  EXPECT_EQ(detected, whole.detected);
  EXPECT_EQ(undetectable, whole.undetectable);
  EXPECT_EQ(aborted, whole.aborted);
  EXPECT_EQ(aborted, 0u);
  EXPECT_EQ(tf_count, tf_tests(whole));
  // A batch whose transition faults were all processed before runs no
  // transition-fault ATPG: it adds no transition-fault test.
  const TpdfRunReport again = batched.run({faults.begin(), faults.begin() + 14});
  EXPECT_EQ(tf_tests(again), tf_count);
}

TEST(TpdfIncremental, TestsAccumulateAcrossBatches) {
  const Netlist nl = make_s27();
  const auto faults = s27_faults();
  TpdfEngineConfig cfg;
  TpdfEngine engine(nl, cfg);
  const TpdfRunReport first =
      engine.run({faults.begin(), faults.begin() + 10});
  const TpdfRunReport second =
      engine.run({faults.begin() + 10, faults.begin() + 30});
  // The second report's test set contains at least the transition-fault
  // tests generated for the first batch (they remain a detection source).
  EXPECT_GE(second.tests.size(), first.tests.size() - first.detected);
}

}  // namespace
}  // namespace fbt
