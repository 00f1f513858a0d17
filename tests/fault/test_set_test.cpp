// The bit-row test store (TestSet, TestSetView) and the block loader that
// reads it: round trips at every field width, row-range views, in-place
// compaction, the footprint formula, and BroadsideBlock over bit rows
// (including views that start mid-chunk) against the byte packer it
// replaced, kept here as the oracle.
#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/registry.hpp"
#include "circuits/s27.hpp"
#include "fault/broadside_test.hpp"
#include "fault/fault_sim.hpp"
#include "sim/bitsim.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace fbt {
namespace {

std::vector<std::uint8_t> random_bits(std::size_t n, Pcg32& rng) {
  std::vector<std::uint8_t> bits(n);
  for (std::uint8_t& b : bits) b = rng.chance(1, 2) ? 1 : 0;
  return bits;
}

BroadsideTest random_test(std::size_t flops, std::size_t inputs, bool with_s2,
                          Pcg32& rng) {
  BroadsideTest t;
  t.scan_state = random_bits(flops, rng);
  t.v1 = random_bits(inputs, rng);
  t.v2 = random_bits(inputs, rng);
  if (with_s2) t.state2_override = random_bits(flops, rng);
  return t;
}

void expect_same(const BroadsideTest& got, const BroadsideTest& want,
                 std::size_t i) {
  EXPECT_EQ(got.scan_state, want.scan_state) << "test " << i;
  EXPECT_EQ(got.v1, want.v1) << "test " << i;
  EXPECT_EQ(got.v2, want.v2) << "test " << i;
  EXPECT_EQ(got.state2_override, want.state2_override) << "test " << i;
}

// Bits of a field's last word past `width` must be zero.
bool padding_clear(const std::uint64_t* words, std::size_t width) {
  if (width % 64 == 0) return true;
  return (words[width / 64] >> (width % 64)) == 0;
}

enum class S2 { kNone, kAll, kMixed };

/// `count` random tests of the given widths, and the set holding them.
std::pair<std::vector<BroadsideTest>, TestSet> random_set(
    std::size_t flops, std::size_t inputs, std::size_t count, S2 s2,
    Pcg32& rng) {
  std::vector<BroadsideTest> ref;
  TestSet set(flops, inputs);
  for (std::size_t i = 0; i < count; ++i) {
    const bool with_s2 = s2 == S2::kAll || (s2 == S2::kMixed && rng.chance(1, 2));
    ref.push_back(random_test(flops, inputs, with_s2, rng));
    set.push_back(ref.back());
  }
  return {std::move(ref), std::move(set)};
}

TEST(TestSet, RoundTripsEveryWidthWithAndWithoutS2) {
  const std::size_t widths[] = {0, 1, 63, 64, 65, 1200};
  Pcg32 rng(2024);
  for (const std::size_t flops : widths) {
    for (const std::size_t inputs : widths) {
      for (const S2 s2 : {S2::kNone, S2::kAll, S2::kMixed}) {
        // 130 rows: two full chunks and a partial third.
        auto [ref, set] = random_set(flops, inputs, 130, s2, rng);
        SCOPED_TRACE(::testing::Message() << "flops " << flops << " inputs "
                                        << inputs << " s2 "
                                        << static_cast<int>(s2));
        ASSERT_EQ(set.size(), ref.size());
        EXPECT_EQ(set.num_flops(), flops);
        EXPECT_EQ(set.num_inputs(), inputs);
        for (std::size_t i = 0; i < ref.size(); ++i) {
          expect_same(set[i], ref[i], i);
          EXPECT_EQ(set.has_state2(i), !ref[i].state2_override.empty());
          EXPECT_EQ(set.state2_words(i) != nullptr && flops != 0,
                    !ref[i].state2_override.empty());
          EXPECT_TRUE(padding_clear(set.s1_words(i), flops));
          EXPECT_TRUE(padding_clear(set.v1_words(i), inputs));
          EXPECT_TRUE(padding_clear(set.v2_words(i), inputs));
          if (flops != 0 && set.has_state2(i)) {
            EXPECT_TRUE(padding_clear(set.state2_words(i), flops));
          }
        }
        std::size_t i = 0;
        for (const BroadsideTest& t : set) {
          expect_same(t, ref[i], i);
          ++i;
        }
        EXPECT_EQ(i, ref.size());
      }
    }
  }
}

TEST(TestSet, TakesItsWidthsFromTheFirstTestAndRefusesOthers) {
  Pcg32 rng(3);
  TestSet set;
  EXPECT_TRUE(set.empty());
  const BroadsideTest first = random_test(65, 3, false, rng);
  set.push_back(first);
  EXPECT_EQ(set.num_flops(), 65u);
  EXPECT_EQ(set.num_inputs(), 3u);
  EXPECT_THROW(set.push_back(random_test(64, 3, false, rng)), Error);
  EXPECT_THROW(set.push_back(random_test(65, 4, false, rng)), Error);
  BroadsideTest short_s2 = random_test(65, 3, true, rng);
  short_s2.state2_override.pop_back();
  EXPECT_THROW(set.push_back(short_s2), Error);
  EXPECT_THROW(set.set(0, short_s2), Error);
  ASSERT_EQ(set.size(), 1u);
  expect_same(set[0], first, 0);
  EXPECT_THROW(set[1], Error);
}

TEST(TestSet, ValueBytesAreReadByTheirLowBit) {
  TestSet set(9, 2);
  set.append(std::vector<std::uint8_t>{1, 0, 3, 2, 1, 1, 0, 0, 255},
             std::vector<std::uint8_t>{2, 1}, std::vector<std::uint8_t>{0, 1});
  EXPECT_EQ(set[0].scan_state,
            (std::vector<std::uint8_t>{1, 0, 1, 0, 1, 1, 0, 0, 1}));
  EXPECT_EQ(set[0].v1, (std::vector<std::uint8_t>{0, 1}));
  EXPECT_EQ(set.s1_words(0)[0], 0b100110101u);
}

TEST(TestSet, ViewsAddressRowRanges) {
  Pcg32 rng(5);
  auto [ref, set] = random_set(70, 9, 200, S2::kMixed, rng);
  const TestSetView whole = set;
  EXPECT_EQ(whole.size(), 200u);
  EXPECT_EQ(whole.first(), 0u);
  const TestSetView mid(set, 70, 100);
  EXPECT_EQ(mid.size(), 100u);
  EXPECT_EQ(mid.first(), 70u);
  EXPECT_EQ(&mid.set(), &set);
  const TestSetView sub = mid.subview(10, 20);
  EXPECT_EQ(sub.first(), 80u);
  EXPECT_EQ(sub.size(), 20u);
  EXPECT_TRUE(mid.subview(100, 0).empty());
  EXPECT_TRUE(TestSetView(set, 200, 0).empty());
  EXPECT_THROW(TestSetView(set, 150, 51), Error);
  EXPECT_THROW(TestSetView(set, 201, 0), Error);
  EXPECT_THROW(mid.subview(90, 11), Error);
  EXPECT_THROW(mid.subview(101, 0), Error);
}

TEST(TestSet, RetainCompactsTheKeptRowsInPlace) {
  Pcg32 rng(7);
  auto [ref, set] = random_set(100, 40, 300, S2::kMixed, rng);
  // Drop a whole chunk, every third row, and the tail.
  const auto keep = [](std::size_t i) {
    return !(i >= 64 && i < 128) && i % 3 != 0 && i < 290;
  };
  std::vector<BroadsideTest> kept;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (keep(i)) kept.push_back(ref[i]);
  }
  std::vector<std::size_t> asked;
  set.retain([&](std::size_t i) {
    asked.push_back(i);
    return keep(i);
  });
  ASSERT_EQ(asked.size(), ref.size());
  EXPECT_TRUE(std::is_sorted(asked.begin(), asked.end()));
  ASSERT_EQ(set.size(), kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    expect_same(set[i], kept[i], i);
    EXPECT_EQ(set.has_state2(i), !kept[i].state2_override.empty());
  }

  // A row appended into a slot that held an override carries none.
  const std::size_t n = set.size();
  set.set(n - 3, random_test(100, 40, true, rng));
  ASSERT_TRUE(set.has_state2(n - 3));
  set.truncate(n - 3);
  const BroadsideTest plain = random_test(100, 40, false, rng);
  set.push_back(plain);
  expect_same(set[n - 3], plain, n - 3);
  EXPECT_FALSE(set.has_state2(n - 3));

  // Keeping every row changes nothing; keeping none frees every chunk.
  const TestSet before = set;
  set.retain([](std::size_t) { return true; });
  ASSERT_EQ(set.size(), before.size());
  for (std::size_t i = 0; i < set.size(); ++i) expect_same(set[i], before[i], i);
  set.retain([](std::size_t) { return false; });
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.footprint_bytes(), sizeof(TestSet));
}

TEST(TestSet, FootprintCountsWholeChunks) {
  // des_perf's widths: 1200 flops (19 words), 233 inputs (4 words each).
  const std::size_t flops = 1200;
  const std::size_t inputs = 233;
  const std::size_t row_bytes = (19 + 4 + 4) * sizeof(std::uint64_t);
  Pcg32 rng(11);
  TestSet set(flops, inputs);
  const std::uint64_t empty = set.footprint_bytes();
  EXPECT_EQ(empty, sizeof(TestSet));
  set.push_back(random_test(flops, inputs, false, rng));
  const std::uint64_t chunk = set.footprint_bytes() - empty;
  // One chunk: kChunkRows rows plus its small bookkeeping record.
  EXPECT_GE(chunk, TestSet::kChunkRows * row_bytes);
  EXPECT_LT(chunk, TestSet::kChunkRows * row_bytes + 128);
  while (set.size() < TestSet::kChunkRows) {
    set.push_back(random_test(flops, inputs, false, rng));
  }
  EXPECT_EQ(set.footprint_bytes(), empty + chunk);
  set.push_back(random_test(flops, inputs, false, rng));
  EXPECT_EQ(set.footprint_bytes(), empty + 2 * chunk);
  // A chunk's first override adds one s2 row per chunk row.
  set.set(3, random_test(flops, inputs, true, rng));
  EXPECT_EQ(set.footprint_bytes(),
            empty + 2 * chunk + TestSet::kChunkRows * 19 * sizeof(std::uint64_t));
  set.set(4, random_test(flops, inputs, true, rng));
  EXPECT_EQ(set.footprint_bytes(),
            empty + 2 * chunk + TestSet::kChunkRows * 19 * sizeof(std::uint64_t));

  // Table 4.3's first des_perf row applies 31104 tests: four byte vectors
  // per test took at least 8x the bit rows' bytes.
  const std::uint64_t tests = 31104;
  const std::uint64_t byte_vectors =
      tests * (sizeof(BroadsideTest) + flops + 2 * inputs);
  const std::uint64_t chunks =
      (tests + TestSet::kChunkRows - 1) / TestSet::kChunkRows;
  EXPECT_GE(byte_vectors, 8 * (empty + chunks * chunk));
}

// ---- the loader against the byte packer it replaced ----------------------

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

std::uint64_t gather8(const std::uint8_t* p) {
  std::uint64_t x;
  std::memcpy(&x, p, 8);
  return ((x & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56;
}

// dest[i] bit t = ptrs[t][i]: per-test byte vectors gathered eight bytes per
// multiply, then one transpose per 64 sources.
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
      for (; c < cols; ++c) w |= static_cast<std::uint64_t>(p[c] & 1) << c;
      tw[t] = w;
    }
    transpose64(tw);
    for (std::size_t j = 0; j < cols; ++j) dest[i + j] = tw[j];
  }
}

/// BroadsideBlock's two-frame load over byte vectors, as it was.
struct ByteBlock {
  std::vector<std::uint64_t> frame1;
  std::vector<std::uint64_t> frame2;
  std::uint64_t mask = 0;

  ByteBlock(const Netlist& nl, const std::vector<BroadsideTest>& tests,
            std::size_t first, std::size_t count) {
    const std::size_t ni = nl.num_inputs();
    const std::size_t nf = nl.num_flops();
    mask = count == 64 ? ~0ULL : ((1ULL << count) - 1);
    BitSim sim(nl);
    std::vector<std::uint64_t> packed(std::max(ni, nf));
    const std::uint8_t* ptrs[64];
    for (std::size_t t = 0; t < count; ++t) ptrs[t] = tests[first + t].v1.data();
    pack_testmajor(ptrs, count, ni, packed.data());
    for (std::size_t i = 0; i < ni; ++i) sim.set_value(nl.inputs()[i], packed[i]);
    for (std::size_t t = 0; t < count; ++t) {
      ptrs[t] = tests[first + t].scan_state.data();
    }
    pack_testmajor(ptrs, count, nf, packed.data());
    for (std::size_t i = 0; i < nf; ++i) sim.set_value(nl.flops()[i], packed[i]);
    sim.eval();
    frame1.assign(sim.values().begin(), sim.values().end());
    std::vector<std::uint64_t> state2(nf);
    sim.next_state(state2);
    for (std::size_t t = 0; t < count; ++t) {
      const auto& ovr = tests[first + t].state2_override;
      if (ovr.empty()) continue;
      const std::uint64_t bit = 1ULL << t;
      for (std::size_t i = 0; i < nf; ++i) {
        if (ovr[i]) {
          state2[i] |= bit;
        } else {
          state2[i] &= ~bit;
        }
      }
    }
    for (std::size_t t = 0; t < count; ++t) ptrs[t] = tests[first + t].v2.data();
    pack_testmajor(ptrs, count, ni, packed.data());
    for (std::size_t i = 0; i < ni; ++i) sim.set_value(nl.inputs()[i], packed[i]);
    for (std::size_t i = 0; i < nf; ++i) sim.set_value(nl.flops()[i], state2[i]);
    sim.eval();
    frame2.assign(sim.values().begin(), sim.values().end());
  }
};

TEST(BroadsideBlock, BitRowsLoadLikeTheBytePacker) {
  // s27: one word per field; s1423: 74 flops; s5378: 179 flops, 35 inputs.
  for (const char* name : {"s27", "s1423", "s5378"}) {
    SCOPED_TRACE(name);
    const Netlist nl = load_benchmark(name);
    Pcg32 rng(13);
    auto [ref, set] =
        random_set(nl.num_flops(), nl.num_inputs(), 200, S2::kMixed, rng);
    BroadsideBlock block(nl);
    // Blocks of the whole set and of a view that starts mid-chunk, so a
    // block's rows straddle two chunks; the last block of each is partial.
    for (const std::size_t offset : {std::size_t{0}, std::size_t{5}}) {
      const TestSetView view(set, offset, set.size() - offset);
      for (std::size_t first = 0; first < view.size(); first += 64) {
        const std::size_t count = std::min<std::size_t>(64, view.size() - first);
        block.load(view, first, count);
        const ByteBlock want(nl, ref, offset + first, count);
        const std::span<const std::uint64_t> got2 = block.frame2();
        ASSERT_TRUE(std::equal(got2.begin(), got2.end(), want.frame2.begin(),
                               want.frame2.end()))
            << "offset " << offset << " block " << first;
        // Both launch polarities of every line pin frame 1 on the block.
        for (NodeId line = 0; line < nl.size(); ++line) {
          for (const bool rising : {true, false}) {
            const std::uint64_t w1 = want.frame1[line];
            const std::uint64_t w2 = want.frame2[line];
            const std::uint64_t expected =
                want.mask & (rising ? (~w1 & w2) : (w1 & ~w2));
            ASSERT_EQ(block.launch_mask({line, rising}), expected)
                << "line " << line << " offset " << offset << " block "
                << first;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fbt
