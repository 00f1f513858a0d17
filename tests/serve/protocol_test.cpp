#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

#include "mutate.hpp"
#include "util/rng.hpp"

namespace fbt::serve {
namespace {

/// Parses an s298 experiment request whose config object is `config`.
bool parse_config(const std::string& config, Request& out,
                  std::string& error) {
  return parse_request(
      "{\"type\": \"experiment\", \"id\": \"p\", \"target\": \"s298\", "
      "\"config\": {" + config + "}}",
      out, error);
}

std::string field(const std::string& key, const std::string& value) {
  return "\"" + key + "\": " + value;
}

TEST(Protocol, InRangeConfigIsParsed) {
  Request req;
  std::string error;
  ASSERT_TRUE(parse_config(
      field("tpg_lfsr_stages", "24") + ", " + field("detect_limit", "3") +
          ", " + field("segment_length", "200") + ", " +
          field("rng_seed", "19"),
      req, error))
      << error;
  EXPECT_EQ(req.experiment.config.generation.tpg.lfsr_stages, 24u);
  EXPECT_EQ(req.experiment.config.generation.detect_limit, 3u);
  EXPECT_EQ(req.experiment.config.generation.segment_length, 200u);
  EXPECT_EQ(req.experiment.config.generation.rng_seed, 19u);
}

// 4294967301 = 2^32 + 5 once narrowed to 5 for every 32-bit field and was
// served (and cached) as that value.
TEST(Protocol, ValuesPastA32BitFieldAreRejectedNotTruncated) {
  for (const char* key :
       {"cal_lfsr_stages", "cal_bias_bits", "tpg_lfsr_stages",
        "tpg_bias_bits", "detect_limit", "rtl_misr_stages"}) {
    Request req;
    std::string error;
    EXPECT_FALSE(parse_config(field(key, "4294967301"), req, error)) << key;
    EXPECT_NE(error.find(key), std::string::npos) << error;

    // The type's own maximum is in range (later stages may still refuse it).
    error.clear();
    EXPECT_TRUE(parse_config(field(key, "4294967295"), req, error))
        << key << ": " << error;
  }
}

TEST(Protocol, NegativeFractionalAndHugeValuesAreRejected) {
  for (const char* value : {"-1", "2.5", "1e300", "18446744073709551616"}) {
    Request req;
    std::string error;
    EXPECT_FALSE(parse_config(field("rng_seed", value), req, error)) << value;
    EXPECT_FALSE(parse_config(field("max_segment_failures", value), req,
                              error))
        << value;
  }
}

TEST(Protocol, WorkSizeFieldsAreCapped) {
  const struct {
    const char* key;
    std::uint64_t cap;
  } caps[] = {{"segment_length", kMaxSegmentLength},
              {"cal_length", kMaxCalLength},
              {"cal_sequences", kMaxCalSequences}};
  for (const auto& [key, cap] : caps) {
    Request req;
    std::string error;
    EXPECT_TRUE(parse_config(field(key, std::to_string(cap)), req, error))
        << key << ": " << error;
    EXPECT_FALSE(parse_config(field(key, std::to_string(cap + 1)), req, error))
        << key;
    EXPECT_NE(error.find(key), std::string::npos) << error;
  }
  Request req;
  std::string error;
  ASSERT_TRUE(parse_config(field("segment_length",
                                 std::to_string(kMaxSegmentLength)) +
                               ", " +
                               field("cal_length",
                                     std::to_string(kMaxCalLength)) +
                               ", " +
                               field("cal_sequences",
                                     std::to_string(kMaxCalSequences)),
                           req, error))
      << error;
  EXPECT_EQ(req.experiment.config.generation.segment_length,
            kMaxSegmentLength);
  EXPECT_EQ(req.experiment.config.calibration.sequence_length, kMaxCalLength);
  EXPECT_EQ(req.experiment.config.calibration.num_sequences,
            kMaxCalSequences);
}

// Hostile input: every mutant of a valid request line is answered true or
// false, never with an exception.
TEST(ProtocolFuzz, MutantsAreAcceptedOrRejectedWithoutThrowing) {
  constexpr int kMutants = 50000;
  const std::string seed_line =
      "{\"type\": \"experiment\", \"id\": \"f\", \"target\": \"s298\", "
      "\"driver\": \"s27\", \"stream_progress\": false, \"config\": "
      "{\"tpg_lfsr_stages\": 24, \"detect_limit\": 3, "
      "\"segment_length\": 200, \"cal_length\": 1000, \"rng_seed\": 19}}";
  Pcg32 rng(0xf022);
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string line =
        testing::mutate(seed_line, rng, "{}[]\":,\\ -.+0123456789eEtrufalsn");
    Request req;
    std::string error;
    bool ok = false;
    ASSERT_NO_THROW(ok = parse_request(line, req, error))
        << "mutant " << i << ": " << line;
    accepted += ok ? 1 : 0;
  }
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace fbt::serve
