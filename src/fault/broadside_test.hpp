// Broadside (launch-on-capture) two-pattern test (dissertation §1.3).
//
// A broadside test is <s1, v1, s2, v2> where s2 is the circuit's response to
// <s1, v1>; only s1, v1, v2 are free. A *functional* broadside test is one
// whose s1 is a reachable state (§4.1), which the BIST flow guarantees by
// construction (tests are cut out of a functional-mode state trajectory).
//
// Storage: a test is all bits, so a TestSet keeps its tests as bit-packed
// rows in one arena instead of four byte vectors per test (DESIGN.md "Test
// storage"). A row holds s1 | v1 | v2, each field padded to whole 64-bit
// words, plus an optional s2 override row. BroadsideTest stays the by-value
// record: TestSet::operator[] and iteration materialize one, and push_back()
// packs one, for the code that reads or builds one test at a time. The
// grader's block loader reads the bit rows directly (BroadsideBlock::load).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace fbt {

struct BroadsideTest {
  std::vector<std::uint8_t> scan_state;  ///< s1, one value per flop
  std::vector<std::uint8_t> v1;          ///< primary inputs, first pattern
  std::vector<std::uint8_t> v2;          ///< primary inputs, second pattern
  /// When nonempty, the state under the second pattern is this vector instead
  /// of the circuit's response to <s1, v1>. State holding (§4.5) produces
  /// such tests: held state variables make s2 deviate from the broadside
  /// response (that is how unreachable states are introduced).
  std::vector<std::uint8_t> state2_override;
};

/// Broadside tests of one circuit as bit rows. Widths are fixed per set:
/// num_flops() bits of s1 and of an s2 override, num_inputs() bits of v1 and
/// of v2. A default-constructed set takes its widths from the first test
/// added. Rows live in chunks of kChunkRows, so appending never copies the
/// rows already stored. Value bytes are read by their least significant bit.
class TestSet {
 public:
  /// Rows per chunk: one grading block (BroadsideBlock loads 64 tests).
  static constexpr std::size_t kChunkRows = 64;

  class const_iterator;

  TestSet() = default;
  TestSet(std::size_t num_flops, std::size_t num_inputs);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t num_flops() const { return num_flops_; }
  std::size_t num_inputs() const { return num_inputs_; }

  /// Test i, materialized. The copy is const so that an edit through it
  /// (which would not reach the row) does not compile; use set().
  const BroadsideTest operator[](std::size_t i) const;
  const_iterator begin() const;
  const_iterator end() const;

  /// Appends `test`; throws fbt::Error when a vector's length does not match
  /// the set's widths (an empty state2_override means "no override").
  void push_back(const BroadsideTest& test);
  /// Appends one row from 0/1 bytes; `s2` empty means no override.
  void append(std::span<const std::uint8_t> s1,
              std::span<const std::uint8_t> v1,
              std::span<const std::uint8_t> v2,
              std::span<const std::uint8_t> s2 = {});
  /// Replaces test i.
  void set(std::size_t i, const BroadsideTest& test);

  /// Keeps the first n rows (n <= size()) and frees the chunks past them.
  void truncate(std::size_t n);
  /// Keeps the rows i for which keep(i) is true, in order, compacting them
  /// in place; keep is called once per row, ascending.
  template <typename Keep>
  void retain(Keep&& keep) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      if (!keep(i)) continue;
      if (kept != i) move_row(kept, i);
      ++kept;
    }
    truncate(kept);
  }

  /// Words per flop field and per input field.
  std::size_t flop_words() const { return flop_words_; }
  std::size_t input_words() const { return input_words_; }
  /// Row i's fields, LSB-first (bit k of word k / 64 is value k); bits past
  /// the width are zero.
  const std::uint64_t* s1_words(std::size_t i) const { return row(i); }
  const std::uint64_t* v1_words(std::size_t i) const {
    return row(i) + flop_words_;
  }
  const std::uint64_t* v2_words(std::size_t i) const {
    return row(i) + flop_words_ + input_words_;
  }
  bool has_state2(std::size_t i) const {
    return (chunks_[i / kChunkRows].s2_mask >> (i % kChunkRows)) & 1u;
  }
  /// Row i's s2 override; nullptr when the row has none.
  const std::uint64_t* state2_words(std::size_t i) const;

  /// Bytes the set owns: the object, its chunk table and every allocated
  /// chunk (resource telemetry).
  std::uint64_t footprint_bytes() const;

 private:
  struct Chunk {
    std::vector<std::uint64_t> rows;  // kChunkRows * stride_: s1 | v1 | v2
    std::vector<std::uint64_t> s2;    // kChunkRows * flop_words_, allocated
                                      // with the chunk's first override
    std::uint64_t s2_mask = 0;        // bit r: row r carries an override
  };

  void adopt_widths(std::size_t num_flops, std::size_t num_inputs);
  const std::uint64_t* row(std::size_t i) const {
    return chunks_[i / kChunkRows].rows.data() + (i % kChunkRows) * stride_;
  }
  std::uint64_t* row(std::size_t i) {
    return chunks_[i / kChunkRows].rows.data() + (i % kChunkRows) * stride_;
  }
  // Opens row size_ (allocating its chunk when needed) and returns its index.
  std::size_t open_row();
  // Sets or clears row i's override; returns its words when `on`.
  std::uint64_t* override_row(std::size_t i, bool on);
  void check_widths(std::span<const std::uint8_t> s1,
                    std::span<const std::uint8_t> v1,
                    std::span<const std::uint8_t> v2,
                    std::span<const std::uint8_t> s2) const;
  // Packs a checked row into row i.
  void write(std::size_t i, std::span<const std::uint8_t> s1,
             std::span<const std::uint8_t> v1,
             std::span<const std::uint8_t> v2,
             std::span<const std::uint8_t> s2);
  void move_row(std::size_t to, std::size_t from);

  bool has_widths_ = false;
  std::size_t num_flops_ = 0;
  std::size_t num_inputs_ = 0;
  std::size_t flop_words_ = 0;
  std::size_t input_words_ = 0;
  std::size_t stride_ = 0;  // words per row
  std::size_t size_ = 0;
  std::vector<Chunk> chunks_;
};

/// Rows [first, first + size) of a TestSet: what the grader takes. A whole
/// set converts implicitly. The view does not own the rows; it must not
/// outlive the set or a truncate() below its end.
class TestSetView {
 public:
  TestSetView(const TestSet& set)
      : set_(&set), first_(0), size_(set.size()) {}
  TestSetView(const TestSet& set, std::size_t first, std::size_t count);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const TestSet& set() const { return *set_; }
  /// Index in set() of the view's row 0.
  std::size_t first() const { return first_; }
  /// Rows [first, first + count) of this view.
  TestSetView subview(std::size_t first, std::size_t count) const;

 private:
  const TestSet* set_;
  std::size_t first_;
  std::size_t size_;
};

/// Input iterator over a set's tests; dereferencing materializes one.
class TestSet::const_iterator {
 public:
  using iterator_category = std::input_iterator_tag;
  using value_type = BroadsideTest;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = const BroadsideTest;

  const_iterator() = default;
  const_iterator(const TestSet* set, std::size_t i) : set_(set), i_(i) {}
  reference operator*() const { return (*set_)[i_]; }
  const_iterator& operator++() {
    ++i_;
    return *this;
  }
  const_iterator operator++(int) {
    const_iterator old = *this;
    ++i_;
    return old;
  }
  bool operator==(const const_iterator& o) const { return i_ == o.i_; }

 private:
  const TestSet* set_ = nullptr;
  std::size_t i_ = 0;
};

inline TestSet::const_iterator TestSet::begin() const { return {this, 0}; }
inline TestSet::const_iterator TestSet::end() const { return {this, size_}; }

/// Computes s2 (the state under the second pattern) for a test.
std::vector<std::uint8_t> second_state(const Netlist& netlist,
                                       const BroadsideTest& test);

}  // namespace fbt
