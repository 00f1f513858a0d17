#include "obs/event_journal.hpp"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/instrument.hpp"

namespace fbt::obs {
namespace {

TEST(EventJournal, AssignsDenseSequenceNumbers) {
  EventJournal j;
  j.emit("first", {});
  j.emit("second", {{"k", 1u}});
  const std::vector<JournalEvent> events = j.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].type, "first");
  EXPECT_EQ(events[1].seq, 1u);
  j.clear();
  EXPECT_EQ(j.size(), 0u);
  j.emit("after_clear", {});
  EXPECT_EQ(j.events()[0].seq, 0u);  // numbering restarts
}

TEST(EventJournal, RendersTypedFieldsAsOneJsonLine) {
  EventJournal j;
  j.emit("seed_tried", {{"seed", 123u},
                        {"segment", -1},
                        {"swa", 12.5},
                        {"reason", "no_new_detections"}});
  const std::vector<JournalEvent> events = j.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(render_event_line(events[0]),
            "{\"seq\": 0, \"type\": \"seed_tried\", \"seed\": 123, "
            "\"segment\": -1, \"swa\": 12.5, "
            "\"reason\": \"no_new_detections\"}");
}

TEST(EventJournal, EscapesStringsInTypeAndFields) {
  EventJournal j;
  j.emit("odd\"type", {{"msg", "line\nbreak"}});
  const std::string line = render_event_line(j.events()[0]);
  EXPECT_NE(line.find("odd\\\"type"), std::string::npos);
  EXPECT_NE(line.find("line\\nbreak"), std::string::npos);
}

TEST(EventJournal, NdjsonIsOneTerminatedLinePerEvent) {
  EventJournal j;
  EXPECT_EQ(j.ndjson(), "");
  j.emit("a", {});
  j.emit("b", {{"v", 2u}});
  const std::string body = j.ndjson();
  std::size_t lines = 0;
  for (const char c : body) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 2u);
  EXPECT_EQ(body.back(), '\n');
}

TEST(EventJournal, WriteNdjsonRoundTrips) {
  EventJournal j;
  j.emit("milestone", {{"detected", 42u}});
  const std::string path = testing::TempDir() + "/fbt_obs_journal_test.ndjson";
  ASSERT_TRUE(j.write_ndjson(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string read_back;
  char buf[1024];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) read_back.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(read_back, j.ndjson());
}

TEST(EventJournal, ConcurrentEmitsAreLosslessWithUniqueSeq) {
  EventJournal j;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&j] {
      for (int i = 0; i < kPerThread; ++i) j.emit("tick", {});
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<JournalEvent> events = j.events();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  std::vector<bool> seen(events.size(), false);
  for (const JournalEvent& e : events) {
    ASSERT_LT(e.seq, seen.size());
    EXPECT_FALSE(seen[e.seq]);
    seen[e.seq] = true;
  }
}

TEST(EventJournal, AppendRenumbersAndKeepsOrder) {
  EventJournal first;
  first.emit("a", {});
  EventJournal second;
  second.emit("b", {{"v", 1u}});
  second.emit("c", {});
  EventJournal merged;
  merged.append(first);
  merged.append(second);
  merged.emit("d", {});
  const std::vector<JournalEvent> events = merged.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_EQ(events[i].type, std::string(1, static_cast<char>('a' + i)));
  }
  // Appending yields the journal of emitting everything into one.
  EventJournal serial;
  serial.emit("a", {});
  serial.emit("b", {{"v", 1u}});
  serial.emit("c", {});
  serial.emit("d", {});
  EXPECT_EQ(merged.ndjson(), serial.ndjson());
  EXPECT_EQ(second.size(), 2u);  // the source is left as it was
}

TEST(JournalScope, RedirectsThisThreadsJournalAndNests) {
  EventJournal& process = journal();
  EventJournal outer;
  EventJournal inner;
  {
    JournalScope outer_scope(outer);
    EXPECT_EQ(&journal(), &outer);
    {
      JournalScope inner_scope(inner);
      EXPECT_EQ(&journal(), &inner);
      // Other threads keep the process-wide journal.
      EventJournal* seen = nullptr;
      std::thread other([&seen] { seen = &journal(); });
      other.join();
      EXPECT_EQ(seen, &process);
    }
    EXPECT_EQ(&journal(), &outer);
  }
  EXPECT_EQ(&journal(), &process);
}

#if FBT_OBS_ENABLED
TEST(EventMacro, RecordsIntoTheScopedJournal) {
  const std::size_t before = journal().size();
  EventJournal scoped;
  {
    JournalScope scope(scoped);
    FBT_OBS_EVENT("scoped_event", {{"value", 1u}});
  }
  EXPECT_EQ(scoped.size(), 1u);
  EXPECT_EQ(journal().size(), before);
}

TEST(EventMacro, AppendsToTheGlobalJournal) {
  const std::size_t before = journal().size();
  FBT_OBS_EVENT("test_event", {{"value", 7u}});
  ASSERT_EQ(journal().size(), before + 1);
  EXPECT_EQ(journal().events().back().type, "test_event");
}
#endif

}  // namespace
}  // namespace fbt::obs
