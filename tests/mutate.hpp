// Deterministic, dependency-free mutation fuzzing for hostile-input tests.
//
// mutate() applies a few random byte-level edits to a valid input, drawing
// every choice from a seeded Pcg32, so a fuzz loop with a fixed iteration
// count explores the same mutants on every run and platform. Replacement
// bytes come mostly from `alphabet` (the input language's own tokens, which
// keeps many mutants close enough to valid to reach deep parser states) and
// occasionally from the full byte range.
#pragma once

#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace fbt::testing {

inline std::string mutate(std::string text, Pcg32& rng,
                          std::string_view alphabet) {
  const auto pick_byte = [&]() -> char {
    if (alphabet.empty() || rng.chance(1, 8)) {
      return static_cast<char>(rng.below(256));
    }
    return alphabet[rng.below(static_cast<std::uint32_t>(alphabet.size()))];
  };
  const auto pos = [&](std::size_t limit) -> std::size_t {
    return rng.below(static_cast<std::uint32_t>(limit) + 1);
  };
  const std::uint32_t edits = rng.range(1, 4);
  for (std::uint32_t e = 0; e < edits; ++e) {
    switch (rng.below(5)) {
      case 0:  // overwrite one byte
        if (!text.empty()) text[pos(text.size() - 1)] = pick_byte();
        break;
      case 1:  // insert one byte
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos(text.size())),
                    pick_byte());
        break;
      case 2: {  // delete a short run
        const std::size_t at = pos(text.size());
        text.erase(at, rng.range(1, 8));
        break;
      }
      case 3: {  // copy a chunk to another position
        const std::size_t from = pos(text.size());
        const std::string chunk = text.substr(from, rng.range(1, 32));
        text.insert(pos(text.size()), chunk);
        break;
      }
      default:  // truncate
        text.resize(pos(text.size()));
        break;
    }
  }
  return text;
}

}  // namespace fbt::testing
