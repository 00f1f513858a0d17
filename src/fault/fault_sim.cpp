#include "fault/fault_sim.hpp"

#include <algorithm>
#include <numeric>

#include "obs/instrument.hpp"
#include "util/require.hpp"
#include "util/timer.hpp"

namespace fbt {

namespace {

// In-place 64x64 bit-matrix transpose: entry (i, j) -- bit j of word i,
// LSB-first -- swaps with (j, i). (The textbook Hacker's Delight body is
// mirrored here: it transposes about the other diagonal under an LSB-first
// bit convention.) Turns per-fault launch masks (bit t = test) into
// per-test lane words (bit k = fault lane).
void transpose64(std::uint64_t a[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

// Source-major packing of a block's bit rows: dest[i] bit t = bit i of the
// field at word `offset` of rows[t], for i < n, t < count (bits count..63
// zero). Each 64-source word of the block is one 64x64 transpose.
void pack_rows(const std::uint64_t* const* rows, std::size_t count,
               std::size_t offset, std::size_t n, std::uint64_t* dest) {
  for (std::size_t i = 0; i < n; i += 64) {
    const std::size_t cols = std::min<std::size_t>(64, n - i);
    std::uint64_t tw[64] = {0};
    for (std::size_t t = 0; t < count; ++t) tw[t] = rows[t][offset + i / 64];
    transpose64(tw);
    for (std::size_t j = 0; j < cols; ++j) dest[i + j] = tw[j];
  }
}

}  // namespace

std::vector<std::uint8_t> second_state(const Netlist& netlist,
                                       const BroadsideTest& test) {
  require(test.scan_state.size() == netlist.num_flops(), "second_state",
          "scan state size mismatch");
  require(test.v1.size() == netlist.num_inputs(), "second_state",
          "v1 size mismatch");
  BitSim sim(netlist);
  for (std::size_t i = 0; i < netlist.num_inputs(); ++i) {
    sim.set_value(netlist.inputs()[i], test.v1[i] ? ~0ULL : 0);
  }
  for (std::size_t i = 0; i < netlist.num_flops(); ++i) {
    sim.set_value(netlist.flops()[i], test.scan_state[i] ? ~0ULL : 0);
  }
  sim.eval();
  std::vector<std::uint8_t> s2(netlist.num_flops());
  for (std::size_t i = 0; i < netlist.num_flops(); ++i) {
    s2[i] = sim.value(netlist.dff_input(netlist.flops()[i])) & 1u;
  }
  return s2;
}

BroadsideBlock::BroadsideBlock(const Netlist& netlist)
    : netlist_(&netlist), sim_(netlist) {
  v1_values_.assign(netlist.size(), 0);
  state2_.assign(netlist.num_flops(), 0);
}

void BroadsideBlock::load(TestSetView tests, std::size_t first,
                          std::size_t count) {
  require(count >= 1 && count <= 64, "BroadsideFaultSim", "bad block size");
  require(first <= tests.size() && count <= tests.size() - first,
          "BroadsideFaultSim", "block past the end of the tests");
  const TestSet& set = tests.set();
  const std::size_t ni = netlist_->num_inputs();
  const std::size_t nf = netlist_->num_flops();
  require(set.num_flops() == nf, "BroadsideFaultSim",
          "scan state size mismatch");
  require(set.num_inputs() == ni, "BroadsideFaultSim", "v1 size mismatch");
  mask_ = count == 64 ? ~0ULL : ((1ULL << count) - 1);
  pack_scratch_.resize(std::max(ni, nf));
  // The block's rows (they may straddle two chunks) and which of them carry
  // an s2 override.
  const std::size_t base = tests.first() + first;
  const std::uint64_t* rows[64];
  std::uint64_t overridden = 0;
  for (std::size_t t = 0; t < count; ++t) {
    rows[t] = set.s1_words(base + t);
    if (set.has_state2(base + t)) overridden |= 1ULL << t;
  }
  const std::size_t v1_at = set.flop_words();
  const std::size_t v2_at = v1_at + set.input_words();
  // Frame 1: sources are <s1, v1>.
  pack_rows(rows, count, v1_at, ni, pack_scratch_.data());
  for (std::size_t i = 0; i < ni; ++i) {
    sim_.set_value(netlist_->inputs()[i], pack_scratch_[i]);
  }
  pack_rows(rows, count, 0, nf, pack_scratch_.data());
  for (std::size_t i = 0; i < nf; ++i) {
    sim_.set_value(netlist_->flops()[i], pack_scratch_[i]);
  }
  FBT_OBS_COUNTER_ADD("fault.blocks_loaded", 1);
  sim_.eval();
  const std::span<const std::uint64_t> frame1 = sim_.values();
  std::copy(frame1.begin(), frame1.end(), v1_values_.begin());
  sim_.next_state(state2_);

  // State-holding tests override s2 per test (see BroadsideTest). Rows
  // without an override are packed from s1 and masked out.
  if (overridden != 0) {
    const std::uint64_t* s2_rows[64];
    for (std::size_t t = 0; t < count; ++t) {
      s2_rows[t] = (overridden >> t) & 1u ? set.state2_words(base + t)
                                          : rows[t];
    }
    pack_rows(s2_rows, count, 0, nf, pack_scratch_.data());
    for (std::size_t i = 0; i < nf; ++i) {
      state2_[i] = (state2_[i] & ~overridden) | (pack_scratch_[i] & overridden);
    }
  }

  // Frame 2: sources are <s2, v2>.
  pack_rows(rows, count, v2_at, ni, pack_scratch_.data());
  for (std::size_t i = 0; i < ni; ++i) {
    sim_.set_value(netlist_->inputs()[i], pack_scratch_[i]);
  }
  for (std::size_t i = 0; i < nf; ++i) {
    sim_.set_value(netlist_->flops()[i], state2_[i]);
  }
  sim_.eval();
}

BroadsideFaultSim::BroadsideFaultSim(const Netlist& netlist)
    : block_(netlist), packed_(netlist) {}

void BroadsideFaultSim::load_block(TestSetView tests, std::size_t first,
                                   std::size_t count) {
  block_.load(tests, first, count);
  packed_.bind_good_trace(block_.frame2());
}

void BroadsideFaultSim::resolve_sites(const TransitionFaultList& faults) {
  site_internal_.resize(faults.size());
  for (std::size_t f = 0; f < faults.size(); ++f) {
    site_internal_[f] = packed_.internal_id(faults.fault(f).line);
  }
}

std::size_t BroadsideFaultSim::transpose_launches(
    const TransitionFaultList& faults, std::span<const std::uint32_t> listed,
    std::size_t count) {
  const std::size_t ngroups = (listed.size() + 63) / 64;
  launch_tx_.assign(ngroups * 64, 0);
  for (std::size_t g = 0; g < ngroups; ++g) {
    std::uint64_t ta[64] = {0};
    const std::size_t base = g * 64;
    const std::size_t glanes = std::min<std::size_t>(64, listed.size() - base);
    for (std::size_t k = 0; k < glanes; ++k) {
      ta[k] = block_.launch_mask(faults.fault(listed[base + k]));
    }
    transpose64(ta);
    // Test-major layout: the per-test chunk walk streams one contiguous row
    // instead of striding across groups.
    for (std::size_t t = 0; t < count; ++t) {
      launch_tx_[t * ngroups + g] = ta[t];
    }
  }
  return ngroups;
}

template <typename OnHit>
void BroadsideFaultSim::propagate_test(unsigned t, std::size_t ngroups,
                                       std::span<const std::uint32_t> listed,
                                       PackStats& stats, OnHit&& on_hit) {
  std::size_t lanes = 0;
  const auto flush = [&] {
    ++stats.groups;
    stats.lanes_wasted += PackedFaultProp::kLanes - lanes;
    const std::uint64_t a = lanes == 64 ? ~0ULL : ((1ULL << lanes) - 1);
    std::uint64_t det = packed_.propagate_internal(
        std::span<const NodeId>(chunk_sites_.data(), lanes), a, t);
    while (det != 0) {
      const unsigned k = static_cast<unsigned>(__builtin_ctzll(det));
      det &= det - 1;
      on_hit(chunk_pos_[k]);
    }
    lanes = 0;
  };
  for (std::size_t g = 0; g < ngroups; ++g) {
    // on_hit may clear needy_ bits; reading needy_[g] per group masks out
    // lanes that saturated at an earlier test of this block.
    std::uint64_t w = launch_tx_[t * ngroups + g] & needy_[g];
    while (w != 0) {
      const unsigned k = static_cast<unsigned>(__builtin_ctzll(w));
      w &= w - 1;
      const std::uint32_t pos = static_cast<std::uint32_t>(g * 64 + k);
      chunk_sites_[lanes] = site_internal_[listed[pos]];
      chunk_pos_[lanes] = pos;
      if (++lanes == PackedFaultProp::kLanes) flush();
    }
  }
  if (lanes != 0) flush();
}

std::size_t BroadsideFaultSim::grade(TestSetView tests,
                                     const TransitionFaultList& faults,
                                     std::span<std::uint32_t> detect_count,
                                     std::uint32_t detect_limit,
                                     GradeProvenance* provenance) {
  require(detect_count.size() == faults.size(), "BroadsideFaultSim::grade",
          "detect_count size must equal the fault count");
  require(detect_limit >= 1, "BroadsideFaultSim::grade",
          "detect_limit must be >= 1");
  FBT_OBS_PHASE("grade");
  Timer grade_timer;
  if (provenance != nullptr) {
    provenance->first_hits.clear();
    provenance->blocks.clear();
  }
  // Dense index list of the faults still below the detect limit. A fault
  // that reaches the limit is compacted out, so later blocks touch only
  // pending faults and an exhausted list ends the walk without rescanning
  // the full fault list per block.
  std::vector<std::uint32_t> active;
  active.reserve(faults.size());
  for (std::size_t f = 0; f < faults.size(); ++f) {
    if (detect_count[f] < detect_limit) {
      active.push_back(static_cast<std::uint32_t>(f));
    }
  }
  resolve_sites(faults);
  std::size_t newly_complete = 0;
  std::size_t tests_loaded = 0;
  PackStats stats;
  const std::uint64_t diff_words_before = packed_.diff_words_propagated();
  for (std::size_t first = 0; first < tests.size() && !active.empty();
       first += 64) {
    const std::size_t count = std::min<std::size_t>(64, tests.size() - first);
    load_block(tests, first, count);
    tests_loaded += count;
    // Tests run in ascending order and a fault's block credit saturates at
    // the limit, so detect counts and first-detect attribution equal those
    // of grading one fault at a time over the block's 64-test words; see
    // DESIGN.md "PPSFP packed fault grading".
    block_hits_.assign(faults.size(), 0);
    const std::size_t ngroups = transpose_launches(faults, active, count);
    // Every listed fault starts the block short of its limit (saturated
    // faults were compacted out of `active`); a lane's needy bit is cleared
    // the moment its credit saturates mid-block, so later tests skip it
    // without touching the count arrays.
    needy_.assign(ngroups, ~0ULL);
    if ((active.size() & 63) != 0) {
      needy_.back() = (1ULL << (active.size() & 63)) - 1;
    }
    for (std::size_t t = 0; t < count; ++t) {
      propagate_test(static_cast<unsigned>(t), ngroups, active, stats,
                     [&](std::uint32_t pos) {
                       const std::uint32_t f = active[pos];
                       if (block_hits_[f]++ == 0 && provenance != nullptr &&
                           detect_count[f] == 0) {
                         provenance->first_hits.push_back(
                             {f, static_cast<std::uint32_t>(first + t)});
                       }
                       if (detect_count[f] + block_hits_[f] >= detect_limit) {
                         needy_[pos >> 6] &= ~(1ULL << (pos & 63));
                       }
                     });
    }
    std::uint32_t block_newly = 0;
    std::size_t live = 0;
    for (const std::uint32_t f : active) {
      if (block_hits_[f] != 0) {
        detect_count[f] =
            std::min(detect_limit, detect_count[f] + block_hits_[f]);
        if (detect_count[f] >= detect_limit) {
          ++newly_complete;  // dropped: not carried into the next block
          ++block_newly;
          continue;
        }
      }
      active[live++] = f;
    }
    active.resize(live);
    if (provenance != nullptr) {
      provenance->blocks.push_back({static_cast<std::uint32_t>(first),
                                    static_cast<std::uint32_t>(count),
                                    block_newly});
    }
  }
  if (provenance != nullptr) {
    // Canonical order: hits are found per (test, lane); sort by fault index.
    std::sort(provenance->first_hits.begin(), provenance->first_hits.end(),
              [](const FirstDetectHit& a, const FirstDetectHit& b) {
                return a.fault < b.fault;
              });
  }
  // Count only tests actually loaded: the walk exits early once the active
  // list empties, so tests.size() would overcount.
  FBT_OBS_COUNTER_ADD("fault.tests_graded", tests_loaded);
  FBT_OBS_COUNTER_ADD("fault.pack_groups_simulated", stats.groups);
  FBT_OBS_COUNTER_ADD("fault.pack_lanes_wasted", stats.lanes_wasted);
  FBT_OBS_COUNTER_ADD("fault.pack_diff_words_propagated",
                      packed_.diff_words_propagated() - diff_words_before);
  FBT_OBS_HIST_RECORD_LOG("fault.grade_duration_ms", grade_timer.ms());
  return newly_complete;
}

std::vector<std::vector<std::uint64_t>> BroadsideFaultSim::detection_matrix(
    TestSetView tests, const TransitionFaultList& faults) {
  const std::size_t words = (tests.size() + 63) / 64;
  std::vector<std::vector<std::uint64_t>> matrix(
      faults.size(), std::vector<std::uint64_t>(words, 0));
  // As grade() with no dropping: every (fault, launching test) pair is
  // propagated and lands in its row bit.
  std::vector<std::uint32_t> all(faults.size());
  std::iota(all.begin(), all.end(), 0u);
  resolve_sites(faults);
  PackStats stats;
  const std::uint64_t diff_words_before = packed_.diff_words_propagated();
  for (std::size_t first = 0; first < tests.size(); first += 64) {
    const std::size_t count = std::min<std::size_t>(64, tests.size() - first);
    load_block(tests, first, count);
    const std::size_t ngroups = transpose_launches(faults, all, count);
    needy_.assign(ngroups, ~0ULL);
    for (std::size_t t = 0; t < count; ++t) {
      propagate_test(static_cast<unsigned>(t), ngroups, all, stats,
                     [&](std::uint32_t f) {
                       matrix[f][first / 64] |= 1ULL << t;
                     });
    }
  }
  FBT_OBS_COUNTER_ADD("fault.pack_groups_simulated", stats.groups);
  FBT_OBS_COUNTER_ADD("fault.pack_lanes_wasted", stats.lanes_wasted);
  FBT_OBS_COUNTER_ADD("fault.pack_diff_words_propagated",
                      packed_.diff_words_propagated() - diff_words_before);
  return matrix;
}

bool BroadsideFaultSim::detects(const BroadsideTest& test,
                                const TransitionFault& fault) {
  TestSet one;
  one.push_back(test);
  load_block(one, 0, 1);
  if ((block_.launch_mask(fault) & 1ULL) == 0) return false;
  const NodeId site = fault.line;
  return (packed_.propagate(std::span(&site, 1), 1ULL, 0) & 1ULL) != 0;
}

}  // namespace fbt
