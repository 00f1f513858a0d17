#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "fault/broadside_test.hpp"
#include "util/require.hpp"

namespace fbt {

namespace {

static_assert(std::endian::native == std::endian::little,
              "bit rows are packed from and unpacked to bytes in place");

std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

// LSBs of eight 0/1 bytes gathered into bits 0..7 (byte j -> bit j).
inline std::uint64_t gather8(const std::uint8_t* p) {
  std::uint64_t x;
  std::memcpy(&x, p, 8);
  return ((x & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56;
}

// Byte j of kSpread[b] is bit j of b: unpacks eight bits per lookup.
constexpr std::array<std::uint64_t, 256> make_spread() {
  std::array<std::uint64_t, 256> t{};
  for (std::size_t b = 0; b < 256; ++b) {
    for (unsigned j = 0; j < 8; ++j) {
      t[b] |= static_cast<std::uint64_t>((b >> j) & 1u) << (8 * j);
    }
  }
  return t;
}
constexpr std::array<std::uint64_t, 256> kSpread = make_spread();

// Writes words_for(bytes.size()) words; bits past the last byte are zero.
void pack_bits(std::span<const std::uint8_t> bytes, std::uint64_t* dest) {
  const std::size_t n = bytes.size();
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t cols = std::min<std::size_t>(64, n - base);
    const std::uint8_t* p = bytes.data() + base;
    std::uint64_t w = 0;
    std::size_t c = 0;
    for (; c + 8 <= cols; c += 8) w |= gather8(p + c) << c;
    for (; c < cols; ++c) w |= static_cast<std::uint64_t>(p[c] & 1u) << c;
    dest[base / 64] = w;
  }
}

std::vector<std::uint8_t> unpack_bits(const std::uint64_t* src,
                                      std::size_t n) {
  std::vector<std::uint8_t> out(n);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t bytes = kSpread[(src[i / 64] >> (i % 64)) & 0xffu];
    std::memcpy(out.data() + i, &bytes, 8);
  }
  for (; i < n; ++i) out[i] = (src[i / 64] >> (i % 64)) & 1u;
  return out;
}

}  // namespace

TestSet::TestSet(std::size_t num_flops, std::size_t num_inputs) {
  adopt_widths(num_flops, num_inputs);
}

void TestSet::adopt_widths(std::size_t num_flops, std::size_t num_inputs) {
  has_widths_ = true;
  num_flops_ = num_flops;
  num_inputs_ = num_inputs;
  flop_words_ = words_for(num_flops);
  input_words_ = words_for(num_inputs);
  stride_ = flop_words_ + 2 * input_words_;
}

const BroadsideTest TestSet::operator[](std::size_t i) const {
  require(i < size_, "TestSet", "test index out of range");
  BroadsideTest test;
  test.scan_state = unpack_bits(s1_words(i), num_flops_);
  test.v1 = unpack_bits(v1_words(i), num_inputs_);
  test.v2 = unpack_bits(v2_words(i), num_inputs_);
  if (has_state2(i)) {
    test.state2_override = unpack_bits(state2_words(i), num_flops_);
  }
  return test;
}

const std::uint64_t* TestSet::state2_words(std::size_t i) const {
  if (!has_state2(i)) return nullptr;
  return chunks_[i / kChunkRows].s2.data() + (i % kChunkRows) * flop_words_;
}

void TestSet::push_back(const BroadsideTest& test) {
  append(test.scan_state, test.v1, test.v2, test.state2_override);
}

void TestSet::append(std::span<const std::uint8_t> s1,
                     std::span<const std::uint8_t> v1,
                     std::span<const std::uint8_t> v2,
                     std::span<const std::uint8_t> s2) {
  if (!has_widths_) adopt_widths(s1.size(), v1.size());
  check_widths(s1, v1, v2, s2);
  write(open_row(), s1, v1, v2, s2);
}

void TestSet::set(std::size_t i, const BroadsideTest& test) {
  require(i < size_, "TestSet", "test index out of range");
  check_widths(test.scan_state, test.v1, test.v2, test.state2_override);
  write(i, test.scan_state, test.v1, test.v2, test.state2_override);
}

void TestSet::truncate(std::size_t n) {
  require(n <= size_, "TestSet", "truncate past the end");
  size_ = n;
  // Mask bits of the rows cut off go stale; a row written again sets its own.
  chunks_.resize((n + kChunkRows - 1) / kChunkRows);
}

std::uint64_t TestSet::footprint_bytes() const {
  std::uint64_t bytes = sizeof(TestSet) + chunks_.size() * sizeof(Chunk);
  for (const Chunk& c : chunks_) {
    bytes += (c.rows.size() + c.s2.size()) * sizeof(std::uint64_t);
  }
  return bytes;
}

std::size_t TestSet::open_row() {
  if (size_ == chunks_.size() * kChunkRows) {
    chunks_.emplace_back();
    chunks_.back().rows.assign(kChunkRows * stride_, 0);
  }
  return size_++;
}

std::uint64_t* TestSet::override_row(std::size_t i, bool on) {
  Chunk& c = chunks_[i / kChunkRows];
  const std::uint64_t bit = 1ULL << (i % kChunkRows);
  if (!on) {
    c.s2_mask &= ~bit;
    return nullptr;
  }
  if (c.s2.empty()) c.s2.assign(kChunkRows * flop_words_, 0);
  c.s2_mask |= bit;
  return c.s2.data() + (i % kChunkRows) * flop_words_;
}

void TestSet::check_widths(std::span<const std::uint8_t> s1,
                           std::span<const std::uint8_t> v1,
                           std::span<const std::uint8_t> v2,
                           std::span<const std::uint8_t> s2) const {
  require(s1.size() == num_flops_, "TestSet", "scan state size mismatch");
  require(v1.size() == num_inputs_, "TestSet", "v1 size mismatch");
  require(v2.size() == num_inputs_, "TestSet", "v2 size mismatch");
  require(s2.empty() || s2.size() == num_flops_, "TestSet",
          "state2_override size mismatch");
}

void TestSet::write(std::size_t i, std::span<const std::uint8_t> s1,
                    std::span<const std::uint8_t> v1,
                    std::span<const std::uint8_t> v2,
                    std::span<const std::uint8_t> s2) {
  std::uint64_t* r = row(i);
  pack_bits(s1, r);
  pack_bits(v1, r + flop_words_);
  pack_bits(v2, r + flop_words_ + input_words_);
  if (std::uint64_t* o = override_row(i, !s2.empty())) pack_bits(s2, o);
}

void TestSet::move_row(std::size_t to, std::size_t from) {
  std::copy_n(row(from), stride_, row(to));
  std::uint64_t* s2 = override_row(to, has_state2(from));
  if (s2 != nullptr) std::copy_n(state2_words(from), flop_words_, s2);
}

TestSetView::TestSetView(const TestSet& set, std::size_t first,
                         std::size_t count)
    : set_(&set), first_(first), size_(count) {
  require(first <= set.size() && count <= set.size() - first, "TestSetView",
          "row range past the end of the set");
}

TestSetView TestSetView::subview(std::size_t first, std::size_t count) const {
  require(first <= size_ && count <= size_ - first, "TestSetView",
          "row range past the end of the view");
  return TestSetView(*set_, first_ + first, count);
}

}  // namespace fbt
