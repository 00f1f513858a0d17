#include "obs/event_journal.hpp"

#include <cinttypes>
#include <cstdio>

#include "obs/run_report.hpp"  // json_escape

namespace fbt::obs {

namespace {

void append_value(const EventValue& v, std::string& out) {
  char buf[48];
  switch (v.kind) {
    case EventValue::Kind::kUint:
      std::snprintf(buf, sizeof(buf), "%" PRIu64, v.u);
      out += buf;
      break;
    case EventValue::Kind::kInt:
      std::snprintf(buf, sizeof(buf), "%" PRId64, v.i);
      out += buf;
      break;
    case EventValue::Kind::kDouble:
      std::snprintf(buf, sizeof(buf), "%.6g", v.d);
      out += buf;
      break;
    case EventValue::Kind::kString:
      out += '"';
      out += json_escape(v.s);
      out += '"';
      break;
  }
}

}  // namespace

std::string render_event_line(const JournalEvent& event) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, event.seq);
  std::string out = "{\"seq\": ";
  out += buf;
  out += ", \"type\": \"" + json_escape(event.type) + "\"";
  for (const auto& [key, value] : event.fields) {
    out += ", \"" + json_escape(key) + "\": ";
    append_value(value, out);
  }
  out += "}";
  return out;
}

void EventJournal::emit(
    std::string_view type,
    std::initializer_list<std::pair<std::string_view, EventValue>> fields) {
  JournalEvent event;
  event.type = std::string(type);
  event.fields.reserve(fields.size());
  for (const auto& [key, value] : fields) {
    event.fields.emplace_back(std::string(key), value);
  }
  std::lock_guard lock(mutex_);
  event.seq = next_seq_++;
  events_.push_back(std::move(event));
}

std::vector<JournalEvent> EventJournal::events() const {
  std::lock_guard lock(mutex_);
  return events_;
}

std::size_t EventJournal::size() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

std::string EventJournal::ndjson() const {
  const std::vector<JournalEvent> copy = events();
  std::string out;
  for (const JournalEvent& event : copy) {
    out += render_event_line(event);
    out += '\n';
  }
  return out;
}

bool EventJournal::write_ndjson(const std::string& path) const {
  const std::string body = ndjson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[obs] cannot open %s for writing\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "[obs] short write to %s\n", path.c_str());
  return ok;
}

void EventJournal::append(const EventJournal& other) {
  std::vector<JournalEvent> copy = other.events();
  std::lock_guard lock(mutex_);
  events_.reserve(events_.size() + copy.size());
  for (JournalEvent& event : copy) {
    event.seq = next_seq_++;
    events_.push_back(std::move(event));
  }
}

void EventJournal::clear() {
  std::lock_guard lock(mutex_);
  events_.clear();
  next_seq_ = 0;
}

std::uint64_t EventJournal::footprint_bytes() const {
  std::lock_guard lock(mutex_);
  std::uint64_t bytes = 0;
  for (const JournalEvent& e : events_) {
    bytes += sizeof(JournalEvent) + e.type.size();
    for (const auto& [name, value] : e.fields) {
      bytes += sizeof(name) + sizeof(value) + name.size() + value.s.size();
    }
  }
  return bytes;
}

namespace {

// The innermost JournalScope's target on this thread; null selects the
// process-wide journal.
thread_local EventJournal* scoped_journal = nullptr;

}  // namespace

EventJournal& journal() {
  static EventJournal instance;
  return scoped_journal != nullptr ? *scoped_journal : instance;
}

JournalScope::JournalScope(EventJournal& target) : saved_(scoped_journal) {
  scoped_journal = &target;
}

JournalScope::~JournalScope() { scoped_journal = saved_; }

}  // namespace fbt::obs
