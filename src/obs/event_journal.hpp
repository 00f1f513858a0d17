// Structured event journal: an append-only log of typed events emitted by
// the BIST flow (seed tried/accepted/rejected, per-block grading progress,
// session milestones). Events render as NDJSON -- one JSON object per line
// -- so a journal is streamable, greppable, and diffable.
//
// Design constraints, matching the metrics registry:
//  * cheap on the emitting path -- one mutex-guarded vector push per event;
//    events are emitted at segment/block granularity, never per gate;
//  * deterministic -- library code emits events only from the construction
//    loop's single-threaded control flow, so the journal is bit-identical
//    across job-pool sizes for the deterministic event subset (see
//    DESIGN.md "Provenance & convergence");
//  * one journal per concurrent experiment -- journal() is the process-wide
//    journal unless a JournalScope on the calling thread redirects it, so
//    experiments running side by side (paper-table rows, serve requests)
//    each record into their own journal and append it to the enclosing one
//    when they finish;
//  * compiled out -- the FBT_OBS_EVENT macro in obs/instrument.hpp is a
//    no-op when the build sets FBT_OBS_ENABLED=0. The classes here stay
//    available in both builds so tools and tests can use them directly.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace fbt::obs {

/// One event payload value: unsigned integer, double, or string. Implicit
/// constructors let call sites write `{{"seed", seed}, {"swa", 12.5}}`.
struct EventValue {
  enum class Kind { kUint, kInt, kDouble, kString };

  template <typename T, std::enable_if_t<std::is_integral_v<T> &&
                                             !std::is_signed_v<T>,
                                         int> = 0>
  EventValue(T v) : kind(Kind::kUint), u(static_cast<std::uint64_t>(v)) {}
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && std::is_signed_v<T>,
                             int> = 0>
  EventValue(T v) : kind(Kind::kInt), i(static_cast<std::int64_t>(v)) {}
  template <typename T, std::enable_if_t<std::is_floating_point_v<T>, int> = 0>
  EventValue(T v) : kind(Kind::kDouble), d(static_cast<double>(v)) {}
  EventValue(const char* v) : kind(Kind::kString), s(v) {}
  EventValue(std::string v) : kind(Kind::kString), s(std::move(v)) {}

  Kind kind = Kind::kUint;
  std::uint64_t u = 0;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;
};

/// One recorded event: a sequence number (assigned at emit, dense from 0), a
/// type tag, and the payload fields in emission order.
struct JournalEvent {
  std::uint64_t seq = 0;
  std::string type;
  std::vector<std::pair<std::string, EventValue>> fields;
};

/// Renders one event as a single-line JSON object:
///   {"seq": 3, "type": "seed_accepted", "seed": 123, "tests": 100}
/// Field order is emission order; "seq" and "type" always lead.
std::string render_event_line(const JournalEvent& event);

/// Append-only event sink. clear() is for tests and fresh tool runs.
class EventJournal {
 public:
  void emit(std::string_view type,
            std::initializer_list<std::pair<std::string_view, EventValue>>
                fields);

  /// Copy of every recorded event, in emission order.
  std::vector<JournalEvent> events() const;

  std::size_t size() const;

  /// Whole journal as NDJSON (one render_event_line per event, each
  /// newline-terminated). Empty string when no events were emitted.
  std::string ndjson() const;

  /// Writes ndjson() to `path`. Returns false (and prints to stderr) on I/O
  /// failure.
  bool write_ndjson(const std::string& path) const;

  /// Appends a copy of every event of `other`, in order, renumbering their
  /// seq to continue this journal's sequence. Appending per-experiment
  /// journals in a fixed order therefore yields the journal a serial run
  /// would have recorded, whatever order the experiments finished in.
  void append(const EventJournal& other);

  /// Drops all events and restarts the sequence numbering at 0.
  void clear();

  /// Approximate heap bytes held by the recorded events (the journal
  /// buffer's own footprint, reported into the run report's memory section).
  std::uint64_t footprint_bytes() const;

 private:
  mutable std::mutex mutex_;
  std::vector<JournalEvent> events_;
  std::uint64_t next_seq_ = 0;
};

/// The journal the FBT_OBS_EVENT macro records into: the innermost live
/// JournalScope's journal on this thread, else the process-wide one.
EventJournal& journal();

/// RAII redirection of journal() on the constructing thread to `target`.
/// Scopes nest; destruction restores the previous journal. `target` must
/// outlive the scope. The JobSystem re-enters a task's poster's journal
/// around the task on the worker that runs it.
class JournalScope {
 public:
  explicit JournalScope(EventJournal& target);
  ~JournalScope();
  JournalScope(const JournalScope&) = delete;
  JournalScope& operator=(const JournalScope&) = delete;

 private:
  EventJournal* saved_;
};

}  // namespace fbt::obs
