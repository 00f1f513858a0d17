#include "serve/protocol.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "serve/cache_key.hpp"

namespace fbt::serve {

namespace {

// Reads the unsigned integer config field `key` into `field`; an absent or
// non-numeric member leaves `field` as it is. A value that is negative,
// fractional, or above `max` (by default the field type's own range) fails
// with `error` instead of being truncated into range.
template <typename T>
bool read_uint(const obs::JsonValue& obj, const char* key, T& field,
               std::string& error,
               std::uint64_t max = std::numeric_limits<T>::max()) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) return true;
  const double x = v->number;
  if (!(x >= 0.0) || x != std::floor(x) || x >= 0x1p64 ||
      static_cast<std::uint64_t>(x) > max) {
    error = std::string("config \"") + key +
            "\" must be an integer in [0, " + std::to_string(max) + "]";
    return false;
  }
  field = static_cast<T>(x);
  return true;
}

bool bool_or(const obs::JsonValue& obj, const std::string& key,
             bool fallback) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->kind == obs::JsonValue::Kind::kBool) return v->boolean;
  return v->as_number(fallback ? 1.0 : 0.0) != 0.0;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

bool parse_request(const std::string& line, Request& out, std::string& error) {
  obs::JsonValue doc;
  if (!obs::json_parse(line, doc, error)) return false;
  if (!doc.is_object()) {
    error = "request must be a JSON object";
    return false;
  }
  const obs::JsonValue* type = doc.find("type");
  const std::string kind =
      type != nullptr ? type->as_string("") : std::string();
  if (const obs::JsonValue* id = doc.find("id")) {
    out.id = id->as_string("");
  } else {
    out.id.clear();
  }
  if (kind == "ping") {
    out.type = RequestType::kPing;
    return true;
  }
  if (kind == "stats") {
    out.type = RequestType::kStats;
    return true;
  }
  if (kind == "shutdown") {
    out.type = RequestType::kShutdown;
    return true;
  }
  if (kind != "experiment") {
    error = "unknown request type \"" + kind + "\"";
    return false;
  }
  out.type = RequestType::kExperiment;
  ExperimentRequest& exp = out.experiment;
  exp = ExperimentRequest{};
  if (const obs::JsonValue* t = doc.find("target")) {
    exp.target = t->as_string("");
  }
  if (const obs::JsonValue* n = doc.find("netlist_bench")) {
    exp.netlist_bench = n->as_string("");
  }
  if (exp.target.empty() && exp.netlist_bench.empty()) {
    error = "experiment request needs \"target\" or \"netlist_bench\"";
    return false;
  }
  if (const obs::JsonValue* d = doc.find("driver")) {
    exp.driver = d->as_string("");
  }
  exp.stream_progress = bool_or(doc, "stream_progress", true);

  BistExperimentConfig& cfg = exp.config;
  cfg.target_name = exp.target;
  cfg.driver_name = exp.driver;
  if (const obs::JsonValue* c = doc.find("config"); c != nullptr &&
                                                    c->is_object()) {
    const obs::JsonValue& o = *c;
    const bool in_range =
        read_uint(o, "cal_sequences", cfg.calibration.num_sequences, error,
                  kMaxCalSequences) &&
        read_uint(o, "cal_length", cfg.calibration.sequence_length, error,
                  kMaxCalLength) &&
        read_uint(o, "cal_rng_seed", cfg.calibration.rng_seed, error) &&
        read_uint(o, "cal_lfsr_stages", cfg.calibration.tpg.lfsr_stages,
                  error) &&
        read_uint(o, "cal_bias_bits", cfg.calibration.tpg.bias_bits, error) &&
        read_uint(o, "tpg_lfsr_stages", cfg.generation.tpg.lfsr_stages,
                  error) &&
        read_uint(o, "tpg_bias_bits", cfg.generation.tpg.bias_bits, error) &&
        read_uint(o, "segment_length", cfg.generation.segment_length, error,
                  kMaxSegmentLength) &&
        read_uint(o, "max_segment_failures",
                  cfg.generation.max_segment_failures, error) &&
        read_uint(o, "max_sequence_failures",
                  cfg.generation.max_sequence_failures, error) &&
        read_uint(o, "rng_seed", cfg.generation.rng_seed, error) &&
        read_uint(o, "detect_limit", cfg.generation.detect_limit, error) &&
        read_uint(o, "scan_max_chains", cfg.scan.max_chains, error) &&
        read_uint(o, "scan_min_chain_length", cfg.scan.min_chain_length,
                  error) &&
        read_uint(o, "rtl_misr_stages", cfg.rtl_misr_stages, error);
    if (!in_range) return false;
    cfg.reduce_sequences =
        bool_or(o, "reduce_sequences", cfg.reduce_sequences);
    cfg.emit_rtl = bool_or(o, "emit_rtl", cfg.emit_rtl);
  }
  return true;
}

std::string hash_detect_counts(const std::vector<std::uint32_t>& counts) {
  KeyBuilder b;
  b.str("detect_counts");
  b.u64(counts.size());
  b.bytes(counts.data(), counts.size() * sizeof(std::uint32_t));
  return b.finish().hex();
}

std::string hash_first_detects(const std::vector<FaultFirstDetect>& fd) {
  KeyBuilder b;
  b.str("first_detects");
  b.u64(fd.size());
  for (const FaultFirstDetect& f : fd) {
    b.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(f.sequence)))
        .u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(f.segment)))
        .u64(static_cast<std::uint64_t>(f.test))
        .u64(f.seed);
  }
  return b.finish().hex();
}

std::string compact_json(const std::string& pretty) {
  std::string out;
  out.reserve(pretty.size());
  bool in_string = false;
  bool escaped = false;
  bool at_line_start = false;
  for (const char c : pretty) {
    if (in_string) {
      out.push_back(c);
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '\n') {
      at_line_start = true;
      continue;
    }
    if (at_line_start && (c == ' ' || c == '\t')) continue;
    at_line_start = false;
    if (c == '"') in_string = true;
    out.push_back(c);
  }
  return out;
}

namespace {

void append_latency(std::string& out, const char* key,
                    const LatencyStats& l) {
  out += "\"";
  out += key;
  out += "\": {\"count\": " + std::to_string(l.count);
  out += ", \"mean_ms\": " + fmt_double(l.mean_ms);
  out += ", \"p50_ms\": " + fmt_double(l.p50_ms);
  out += ", \"p99_ms\": " + fmt_double(l.p99_ms);
  out += ", \"p99_clamped\": ";
  out += l.p99_clamped ? "true" : "false";
  out += "}";
}

}  // namespace

std::string render_stats(const std::string& id, const ServiceStats& s) {
  // The flat cache/request fields predate the latency section and stay
  // byte-compatible with the v1 stats line (tests and CI grep for them).
  std::string out = "{\"type\": \"stats\", \"id\": \"";
  out += obs::json_escape(id);
  out += "\", \"requests_total\": " + std::to_string(s.requests_total);
  out += ", \"cache_hits\": " + std::to_string(s.cache_hits);
  out += ", \"cache_misses\": " + std::to_string(s.cache_misses);
  out += ", \"cache_evictions\": " + std::to_string(s.cache_evictions);
  out += ", \"cache_entries\": " + std::to_string(s.cache_entries);
  out += ", \"cache_bytes\": " + std::to_string(s.cache_bytes);
  out += ", \"latency\": {";
  append_latency(out, "cold", s.cold);
  out += ", ";
  append_latency(out, "warm", s.warm);
  out += ", ";
  append_latency(out, "queue", s.queue);
  out += ", ";
  append_latency(out, "cache_lookup", s.cache_lookup);
  out += ", ";
  append_latency(out, "compute", s.compute);
  out += ", ";
  append_latency(out, "render", s.render);
  out += "}";
  const SchedulerStats& sch = s.scheduler;
  out += ", \"scheduler\": {\"workers\": " + std::to_string(sch.workers);
  out += ", \"queue_depth\": " + std::to_string(sch.queue_depth);
  out += ", \"submitted\": " + std::to_string(sch.submitted);
  out += ", \"executed\": " + std::to_string(sch.executed);
  out += ", \"busy_ms\": " + fmt_double(sch.busy_ms);
  out += ", \"utilization\": " + fmt_double(sch.utilization);
  out += "}}";
  return out;
}

std::string render_progress(const std::string& id,
                            const obs::JournalEvent& event) {
  std::string out = "{\"type\": \"progress\", \"id\": \"";
  out += obs::json_escape(id);
  out += "\", \"event\": ";
  out += obs::render_event_line(event);
  if (!out.empty() && out.back() == '\n') out.pop_back();
  out += "}";
  return out;
}

std::string render_result(const std::string& id, const ExperimentSummary& s,
                          bool cache_hit, const std::string& experiment_key,
                          double elapsed_ms,
                          const std::string& compact_report) {
  std::string out = "{\"type\": \"result\", \"id\": \"";
  out += obs::json_escape(id);
  out += "\", \"cache\": \"";
  out += cache_hit ? "hit" : "miss";
  out += "\", \"target\": \"";
  out += obs::json_escape(s.target);
  out += "\", \"experiment_key\": \"" + experiment_key + "\"";
  out += ", \"swa_func_percent\": " + fmt_double(s.swa_func_percent);
  out += ", \"num_tests\": " + std::to_string(s.num_tests);
  out += ", \"num_seeds\": " + std::to_string(s.num_seeds);
  out += ", \"num_faults\": " + std::to_string(s.num_faults);
  out += ", \"detected\": " + std::to_string(s.detected);
  out += ", \"fault_coverage_percent\": " +
         fmt_double(s.fault_coverage_percent);
  out += ", \"overhead_percent\": " + fmt_double(s.overhead_percent);
  out += ", \"detect_hash\": \"" + hash_detect_counts(s.detect_count) + "\"";
  out += ", \"first_detect_hash\": \"" + hash_first_detects(s.first_detect) +
         "\"";
  out += ", \"elapsed_ms\": " + fmt_double(elapsed_ms);
  if (!compact_report.empty()) {
    out += ", \"report\": " + compact_report;
  }
  out += "}";
  return out;
}

std::string render_error(const std::string& id, const std::string& message) {
  return "{\"type\": \"error\", \"id\": \"" + obs::json_escape(id) +
         "\", \"message\": \"" + obs::json_escape(message) + "\"}";
}

std::string render_pong(const std::string& id) {
  return "{\"type\": \"pong\", \"id\": \"" + obs::json_escape(id) + "\"}";
}

std::string render_bye(const std::string& id) {
  return "{\"type\": \"bye\", \"id\": \"" + obs::json_escape(id) + "\"}";
}

}  // namespace fbt::serve
