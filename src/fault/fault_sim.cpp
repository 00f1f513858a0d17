#include "fault/fault_sim.hpp"

#include <algorithm>
#include <cstring>

#include "obs/instrument.hpp"
#include "sim/value.hpp"
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

// LSBs of eight 0/1 bytes gathered into bits 0..7 (byte j -> bit j).
inline std::uint64_t gather8(const std::uint8_t* p) {
  std::uint64_t x;
  std::memcpy(&x, p, 8);
  return ((x & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56;
}

// Source-major bit packing of per-test byte vectors: dest[i] bit t =
// ptrs[t][i] for i < n, t < count (bits count..63 zero). A test's 64-source
// run is gathered eight bytes per multiply into one word, and a 64x64
// transpose flips the block test-major -> source-major -- an order of
// magnitude fewer operations than the bit-at-a-time loop it replaces.
void pack_testmajor(const std::uint8_t* const* ptrs, std::size_t count,
                    std::size_t n, std::uint64_t* dest) {
  for (std::size_t i = 0; i < n; i += 64) {
    const std::size_t cols = std::min<std::size_t>(64, n - i);
    std::uint64_t tw[64] = {0};
    for (std::size_t t = 0; t < count; ++t) {
      const std::uint8_t* p = ptrs[t] + i;
      std::uint64_t w = 0;
      std::size_t c = 0;
      for (; c + 8 <= cols; c += 8) w |= gather8(p + c) << c;
      for (; c < cols; ++c) {
        w |= static_cast<std::uint64_t>(p[c] & 1) << c;
      }
      tw[t] = w;
    }
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

BroadsideFaultSim::BroadsideFaultSim(const Netlist& netlist, Engine engine,
                                     std::shared_ptr<const FlatFanins> flat)
    : netlist_(&netlist), sim_(netlist) {
  v1_values_.assign(netlist.size(), 0);
  state2_.assign(netlist.num_flops(), 0);
  if (engine == Engine::kPacked) {
    packed_ = std::make_unique<PackedFaultProp>(netlist, std::move(flat));
    good2_values_.assign(netlist.size(), 0);
    chunk_sites_.assign(PackedFaultProp::kLanes, 0);
    chunk_fault_.assign(PackedFaultProp::kLanes, 0);
    chunk_pos_.assign(PackedFaultProp::kLanes, 0);
  }
}

void BroadsideFaultSim::load_block(std::span<const BroadsideTest> tests,
                                   std::size_t first, std::size_t count) {
  require(count >= 1 && count <= 64, "BroadsideFaultSim", "bad block size");
  block_mask_ = count == 64 ? ~0ULL : ((1ULL << count) - 1);
  const std::size_t ni = netlist_->num_inputs();
  const std::size_t nf = netlist_->num_flops();
  pack_scratch_.resize(std::max(ni, nf));
  // Bit-packing runs test-major so each test's value vector is read once,
  // sequentially (source-major order would hop across all 64 test objects
  // per source line); see pack_testmajor above.
  const std::uint8_t* ptrs[64];
  // Frame 1: sources are <s1, v1>.
  for (std::size_t t = 0; t < count; ++t) ptrs[t] = tests[first + t].v1.data();
  pack_testmajor(ptrs, count, ni, pack_scratch_.data());
  for (std::size_t i = 0; i < ni; ++i) {
    sim_.set_value(netlist_->inputs()[i], pack_scratch_[i]);
  }
  for (std::size_t t = 0; t < count; ++t) {
    ptrs[t] = tests[first + t].scan_state.data();
  }
  pack_testmajor(ptrs, count, nf, pack_scratch_.data());
  for (std::size_t i = 0; i < nf; ++i) {
    sim_.set_value(netlist_->flops()[i], pack_scratch_[i]);
  }
  FBT_OBS_COUNTER_ADD("fault.blocks_loaded", 1);
  sim_.eval();
  for (NodeId id = 0; id < netlist_->size(); ++id) {
    v1_values_[id] = sim_.value(id);
  }
  sim_.next_state(state2_);

  // State-holding tests override s2 per test (see BroadsideTest).
  for (std::size_t t = 0; t < count; ++t) {
    const auto& ovr = tests[first + t].state2_override;
    if (ovr.empty()) continue;
    require(ovr.size() == netlist_->num_flops(), "BroadsideFaultSim",
            "state2_override size mismatch");
    const std::uint64_t bit = 1ULL << t;
    for (std::size_t i = 0; i < netlist_->num_flops(); ++i) {
      if (ovr[i]) {
        state2_[i] |= bit;
      } else {
        state2_[i] &= ~bit;
      }
    }
  }

  // Frame 2: sources are <s2, v2>.
  for (std::size_t t = 0; t < count; ++t) ptrs[t] = tests[first + t].v2.data();
  pack_testmajor(ptrs, count, ni, pack_scratch_.data());
  for (std::size_t i = 0; i < ni; ++i) {
    sim_.set_value(netlist_->inputs()[i], pack_scratch_[i]);
  }
  for (std::size_t i = 0; i < netlist_->num_flops(); ++i) {
    sim_.set_value(netlist_->flops()[i], state2_[i]);
  }
  sim_.eval();
}

std::uint64_t BroadsideFaultSim::fault_mask(const TransitionFault& fault) {
  const std::uint64_t w1 = v1_values_[fault.line];
  const std::uint64_t w2 = sim_.value(fault.line);
  // Launch: line holds the initial value under p1 and the final value under
  // p2 (fault-free). STR initial value 0, STF initial value 1.
  const std::uint64_t active =
      block_mask_ & (fault.rising ? (~w1 & w2) : (w1 & ~w2));
  if (active == 0) return 0;
  // Fault effect in frame 2: stuck at the initial value.
  const std::uint64_t forced = fault.rising ? 0 : ~0ULL;
  return active & sim_.fault_propagate(fault.line, forced);
}

void BroadsideFaultSim::bind_packed_block() {
  for (NodeId id = 0; id < netlist_->size(); ++id) {
    good2_values_[id] = sim_.value(id);
  }
  packed_->bind_good_trace(good2_values_);
}

std::size_t BroadsideFaultSim::grade(std::span<const BroadsideTest> tests,
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
  if (packed_ != nullptr) {
    // Translate each fault site into the packed kernel's internal id space
    // once up front; the chunk walk hands propagate_internal() pre-resolved
    // sites instead of paying the lookup per lane per call.
    site_internal_.resize(faults.size());
    for (std::size_t f = 0; f < faults.size(); ++f) {
      site_internal_[f] = packed_->internal_id(faults.fault(f).line);
    }
  }
  std::size_t newly_complete = 0;
  std::size_t tests_loaded = 0;
  std::uint64_t pack_groups = 0;
  std::uint64_t pack_lanes_wasted = 0;
  const std::uint64_t pack_evals_before =
      packed_ != nullptr ? packed_->diff_words_propagated() : 0;
  for (std::size_t first = 0; first < tests.size() && !active.empty();
       first += 64) {
    const std::size_t count = std::min<std::size_t>(64, tests.size() - first);
    load_block(tests, first, count);
    tests_loaded += count;
    std::uint32_t block_newly = 0;
    std::size_t live = 0;
    if (packed_ != nullptr) {
      // PPSFP walk, test-major: transpose the active faults' launch masks
      // into per-test lane words, then pack up to kLanes still-needy faults
      // of each test into full lane words (fixed fault groups would
      // leave most lanes idle). Tests run in ascending order with the serial
      // saturation arithmetic, so detect counts and first-detect attribution
      // reproduce the serial engine exactly; see DESIGN.md "PPSFP packed
      // fault grading".
      bind_packed_block();
      block_hits_.assign(faults.size(), 0);
      const std::size_t ngroups = (active.size() + 63) / 64;
      // Every listed fault starts the block short of its limit (grade()
      // compacts saturated faults out of `active`); a lane's needy bit is
      // cleared the moment its credit saturates mid-block, so the chunk
      // walk's AND filters dead lanes without touching the count arrays.
      needy_.assign(ngroups, ~0ULL);
      if ((active.size() & 63) != 0) {
        needy_.back() = (1ULL << (active.size() & 63)) - 1;
      }
      launch_tx_.assign(ngroups * 64, 0);
      for (std::size_t g = 0; g < ngroups; ++g) {
        std::uint64_t ta[64] = {0};
        const std::size_t base = g * 64;
        const std::size_t glanes =
            std::min<std::size_t>(64, active.size() - base);
        for (std::size_t k = 0; k < glanes; ++k) {
          ta[k] = launch_mask(faults.fault(active[base + k]));
        }
        transpose64(ta);
        // Test-major layout: the per-test chunk walk below streams one
        // contiguous row instead of striding across groups.
        for (std::size_t t = 0; t < count; ++t) {
          launch_tx_[t * ngroups + g] = ta[t];
        }
      }
      for (std::size_t t = 0; t < count; ++t) {
        std::size_t lanes = 0;
        // Propagate one packed chunk and credit the detected lanes.
        const auto flush = [&](std::size_t nlanes) {
          ++pack_groups;
          pack_lanes_wasted += PackedFaultProp::kLanes - nlanes;
          const std::uint64_t a =
              nlanes == 64 ? ~0ULL : ((1ULL << nlanes) - 1);
          std::uint64_t det = packed_->propagate_internal(
              std::span<const NodeId>(chunk_sites_.data(), nlanes), a,
              static_cast<unsigned>(t));
          while (det != 0) {
            const unsigned k = static_cast<unsigned>(__builtin_ctzll(det));
            det &= det - 1;
            const std::uint32_t f = chunk_fault_[k];
            if (block_hits_[f]++ == 0 && provenance != nullptr &&
                detect_count[f] == 0) {
              provenance->first_hits.push_back(
                  {f, static_cast<std::uint32_t>(first + t)});
            }
            if (detect_count[f] + block_hits_[f] >= detect_limit) {
              const std::uint32_t pos = chunk_pos_[k];
              needy_[pos >> 6] &= ~(1ULL << (pos & 63));
            }
          }
        };
        for (std::size_t g = 0; g < ngroups; ++g) {
          // Lanes whose fault saturated at an earlier test of this block
          // are masked out wholesale; skipping them reproduces the serial
          // engine's min(limit, count + popcount) exactly -- it cannot tell
          // the difference.
          std::uint64_t w = launch_tx_[t * ngroups + g] & needy_[g];
          while (w != 0) {
            const unsigned k = static_cast<unsigned>(__builtin_ctzll(w));
            w &= w - 1;
            const std::uint32_t pos = static_cast<std::uint32_t>(g * 64 + k);
            const std::uint32_t f = active[pos];
            chunk_sites_[lanes] = site_internal_[f];
            chunk_fault_[lanes] = f;
            chunk_pos_[lanes] = pos;
            if (++lanes == PackedFaultProp::kLanes) {
              flush(lanes);
              lanes = 0;
            }
          }
        }
        if (lanes != 0) flush(lanes);
      }
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
    } else {
      for (const std::uint32_t f : active) {
        const std::uint64_t mask = fault_mask(faults.fault(f));
        if (mask != 0) {
          if (provenance != nullptr && detect_count[f] == 0) {
            provenance->first_hits.push_back(
                {f, static_cast<std::uint32_t>(first) +
                        static_cast<std::uint32_t>(__builtin_ctzll(mask))});
          }
          const auto hits =
              static_cast<std::uint32_t>(__builtin_popcountll(mask));
          detect_count[f] = std::min(detect_limit, detect_count[f] + hits);
          if (detect_count[f] >= detect_limit) {
            ++newly_complete;  // dropped: not carried into the next block
            ++block_newly;
            continue;
          }
        }
        active[live++] = f;
      }
    }
    active.resize(live);
    if (provenance != nullptr) {
      provenance->blocks.push_back({static_cast<std::uint32_t>(first),
                                    static_cast<std::uint32_t>(count),
                                    block_newly});
    }
  }
  if (provenance != nullptr) {
    // Canonical order: the in-loop order differs between the engines
    // (serial: block, active-list position; packed: test, lane); fault index
    // is the same for both.
    std::sort(provenance->first_hits.begin(), provenance->first_hits.end(),
              [](const FirstDetectHit& a, const FirstDetectHit& b) {
                return a.fault < b.fault;
              });
  }
  // Count only tests actually loaded: the walk exits early once the active
  // list empties, so tests.size() would overcount.
  FBT_OBS_COUNTER_ADD("fault.tests_graded", tests_loaded);
  FBT_OBS_COUNTER_ADD("fault.faults_dropped", newly_complete);
  if (packed_ != nullptr) {
    FBT_OBS_COUNTER_ADD("fault.pack_groups_simulated", pack_groups);
    FBT_OBS_COUNTER_ADD("fault.pack_lanes_wasted", pack_lanes_wasted);
    FBT_OBS_COUNTER_ADD("fault.pack_diff_words_propagated",
                        packed_->diff_words_propagated() - pack_evals_before);
  }
  FBT_OBS_HIST_RECORD("fault.grade_duration_ms", grade_timer.ms());
  return newly_complete;
}

std::vector<std::vector<std::uint64_t>> BroadsideFaultSim::detection_matrix(
    std::span<const BroadsideTest> tests, const TransitionFaultList& faults) {
  const std::size_t words = (tests.size() + 63) / 64;
  std::vector<std::vector<std::uint64_t>> matrix(
      faults.size(), std::vector<std::uint64_t>(words, 0));
  std::uint64_t pack_groups = 0;
  const std::uint64_t pack_evals_before =
      packed_ != nullptr ? packed_->diff_words_propagated() : 0;
  for (std::size_t first = 0; first < tests.size(); first += 64) {
    const std::size_t count = std::min<std::size_t>(64, tests.size() - first);
    load_block(tests, first, count);
    if (packed_ != nullptr) {
      // Test-major PPSFP, as in grade() but with no dropping: every
      // (fault, launching test) pair is propagated and lands in its row bit.
      bind_packed_block();
      if (first == 0) {
        site_internal_.resize(faults.size());
        for (std::size_t f = 0; f < faults.size(); ++f) {
          site_internal_[f] = packed_->internal_id(faults.fault(f).line);
        }
      }
      const std::size_t ngroups = (faults.size() + 63) / 64;
      launch_tx_.assign(ngroups * 64, 0);
      for (std::size_t g = 0; g < ngroups; ++g) {
        std::uint64_t ta[64] = {0};
        const std::size_t base = g * 64;
        const std::size_t glanes =
            std::min<std::size_t>(64, faults.size() - base);
        for (std::size_t k = 0; k < glanes; ++k) {
          ta[k] = launch_mask(faults.fault(base + k));
        }
        transpose64(ta);
        for (std::size_t t = 0; t < count; ++t) {
          launch_tx_[t * ngroups + g] = ta[t];
        }
      }
      for (std::size_t t = 0; t < count; ++t) {
        std::size_t lanes = 0;
        const auto flush = [&](std::size_t nlanes) {
          ++pack_groups;
          const std::uint64_t a =
              nlanes == 64 ? ~0ULL : ((1ULL << nlanes) - 1);
          std::uint64_t det = packed_->propagate_internal(
              std::span<const NodeId>(chunk_sites_.data(), nlanes), a,
              static_cast<unsigned>(t));
          while (det != 0) {
            const unsigned k = static_cast<unsigned>(__builtin_ctzll(det));
            det &= det - 1;
            matrix[chunk_fault_[k]][first / 64] |= 1ULL << t;
          }
        };
        for (std::size_t g = 0; g < ngroups; ++g) {
          std::uint64_t w = launch_tx_[t * ngroups + g];
          while (w != 0) {
            const unsigned k = static_cast<unsigned>(__builtin_ctzll(w));
            w &= w - 1;
            const std::uint32_t f = static_cast<std::uint32_t>(g * 64 + k);
            chunk_sites_[lanes] = site_internal_[f];
            chunk_fault_[lanes] = f;
            if (++lanes == PackedFaultProp::kLanes) {
              flush(lanes);
              lanes = 0;
            }
          }
        }
        if (lanes != 0) flush(lanes);
      }
    } else {
      for (std::size_t f = 0; f < faults.size(); ++f) {
        matrix[f][first / 64] = fault_mask(faults.fault(f));
      }
    }
  }
  if (packed_ != nullptr) {
    FBT_OBS_COUNTER_ADD("fault.pack_groups_simulated", pack_groups);
    FBT_OBS_COUNTER_ADD("fault.pack_diff_words_propagated",
                        packed_->diff_words_propagated() - pack_evals_before);
  }
  return matrix;
}

bool BroadsideFaultSim::detects(const BroadsideTest& test,
                                const TransitionFault& fault) {
  load_block(std::span(&test, 1), 0, 1);
  if (packed_ != nullptr) {
    bind_packed_block();
    if ((launch_mask(fault) & 1ULL) == 0) return false;
    const NodeId site = fault.line;
    return (packed_->propagate(std::span(&site, 1), 1ULL, 0) & 1ULL) != 0;
  }
  return (fault_mask(fault) & 1ULL) != 0;
}

}  // namespace fbt
