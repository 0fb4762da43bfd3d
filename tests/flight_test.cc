// Tests for the request-scoped flight recorder (obs/flight.h): the
// seqlock wide-event ring under concurrent writers (run under TSan in
// CI), the tail-retention policy against a fake window clock, the FIFO
// byte-capped arena, head sampling, the async-signal-safe JSON renderer,
// and the crash black box via a forked child that raises SIGABRT.

#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "gtest/gtest.h"
#include "obs/flight.h"
#include "service/metrics.h"
#include "trace/trace.h"

namespace relcont {
namespace {

using obs::FlightRecorder;
using obs::WideEvent;

/// A wide event whose numeric fields are all derived from `id`, so a
/// reader can detect a torn ring slot by checking self-consistency.
WideEvent SelfConsistentEvent(uint64_t id) {
  WideEvent event;
  event.request_id = id;
  event.ts_unix_micros = 7 * id;
  event.latency_micros = 3 * id + 1;
  event.catalog_version = static_cast<int64_t>(id);
  event.worker_count = static_cast<uint32_t>(id % 17);
  event.error = static_cast<uint8_t>(id % 2);
  event.set_verb("contained");
  event.set_regime("section3");
  event.set_catalog("stress");
  return event;
}

TEST(FlightRingTest, ConcurrentWritersNeverSurfaceTornEvents) {
  FlightRecorder flight({/*ring_capacity=*/256, /*arena_max_bytes=*/1024,
                         /*head_sample_every=*/0});
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;

  std::vector<std::thread> writers;
  std::atomic<bool> reader_stop{false};
  // A concurrent reader exercises the seqlock validation while writers
  // race; every event it surfaces must be internally consistent.
  std::thread reader([&flight, &reader_stop] {
    while (!reader_stop.load(std::memory_order_relaxed)) {
      for (const WideEvent& event : flight.RecentEvents(64)) {
        WideEvent expected = SelfConsistentEvent(event.request_id);
        EXPECT_EQ(event.latency_micros, expected.latency_micros);
        EXPECT_EQ(event.ts_unix_micros, expected.ts_unix_micros);
        EXPECT_EQ(event.catalog_version, expected.catalog_version);
        EXPECT_EQ(event.worker_count, expected.worker_count);
        EXPECT_STREQ(event.catalog, "stress");
      }
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&flight, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        flight.Record(SelfConsistentEvent(
            static_cast<uint64_t>(t) * kPerThread + i + 1));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  reader_stop.store(true, std::memory_order_relaxed);
  reader.join();

  // Every Record counts, including writes dropped in slot races.
  EXPECT_EQ(flight.recorded_total(), kThreads * kPerThread);

  std::vector<WideEvent> recent = flight.RecentEvents(256);
  EXPECT_GT(recent.size(), 0u);
  EXPECT_LE(recent.size(), 256u);
  std::set<uint64_t> ids;
  for (const WideEvent& event : recent) {
    WideEvent expected = SelfConsistentEvent(event.request_id);
    EXPECT_EQ(event.latency_micros, expected.latency_micros);
    EXPECT_EQ(event.catalog_version, expected.catalog_version);
    EXPECT_TRUE(ids.insert(event.request_id).second)
        << "duplicate id " << event.request_id;
  }
}

TEST(FlightRingTest, RecentEventsAreNewestFirst) {
  FlightRecorder flight({/*ring_capacity=*/8, /*arena_max_bytes=*/1024,
                         /*head_sample_every=*/0});
  for (uint64_t id = 1; id <= 20; ++id) {
    flight.Record(SelfConsistentEvent(id));
  }
  std::vector<WideEvent> recent = flight.RecentEvents();
  ASSERT_EQ(recent.size(), 8u);  // one ring lap survives
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].request_id, 20 - i);
  }
}

TEST(FlightRingTest, RequestIdsAreMonotonicFromOne) {
  FlightRecorder flight;
  EXPECT_EQ(flight.NextRequestId(), 1u);
  EXPECT_EQ(flight.NextRequestId(), 2u);
  EXPECT_EQ(flight.NextRequestId(), 3u);
}

TEST(FlightArenaTest, FifoEvictionUnderByteCapCountsDrops) {
  WideEvent event;
  const size_t entry_bytes = sizeof(WideEvent) + 100;
  FlightRecorder flight({/*ring_capacity=*/16,
                         /*arena_max_bytes=*/3 * entry_bytes,
                         /*head_sample_every=*/0});
  for (uint64_t id = 1; id <= 5; ++id) {
    event.request_id = id;
    flight.Retain(event, std::string(60, 'a'), std::string(40, 'b'));
  }
  // Three fit; retaining the 4th and 5th evicted the two oldest.
  EXPECT_EQ(flight.retained_total(), 5u);
  EXPECT_EQ(flight.dropped_total(), 2u);
  EXPECT_LE(flight.arena_bytes(), flight.arena_max_bytes());
  EXPECT_FALSE(flight.FindRetained(1).has_value());
  EXPECT_FALSE(flight.FindRetained(2).has_value());
  ASSERT_TRUE(flight.FindRetained(5).has_value());
  EXPECT_EQ(flight.FindRetained(5)->trace_text, std::string(60, 'a'));
  EXPECT_EQ(flight.RetainedIds(), (std::vector<uint64_t>{5, 4, 3}));

  // An entry bigger than the whole arena is dropped outright.
  event.request_id = 6;
  flight.Retain(event, std::string(4 * entry_bytes, 'c'), "");
  EXPECT_FALSE(flight.FindRetained(6).has_value());
  EXPECT_EQ(flight.dropped_total(), 3u);
}

TEST(FlightArenaTest, HeadSamplingKeepsEveryNth) {
  FlightRecorder flight({/*ring_capacity=*/16, /*arena_max_bytes=*/4096,
                         /*head_sample_every=*/4});
  EXPECT_TRUE(flight.ShouldHeadSample(1));
  EXPECT_FALSE(flight.ShouldHeadSample(2));
  EXPECT_FALSE(flight.ShouldHeadSample(4));
  EXPECT_TRUE(flight.ShouldHeadSample(5));
  EXPECT_TRUE(flight.ShouldHeadSample(9));

  FlightRecorder disabled({/*ring_capacity=*/16, /*arena_max_bytes=*/4096,
                           /*head_sample_every=*/0});
  for (uint64_t id = 1; id <= 16; ++id) {
    EXPECT_FALSE(disabled.ShouldHeadSample(id));
  }
}

TEST(FlightJsonTest, RenderedWideEventParsesWithEveryField) {
  WideEvent event;
  event.request_id = 42;
  event.ts_unix_micros = 1700000000000000;
  event.latency_micros = 1234;
  event.catalog_version = 3;
  event.worker_count = 4;
  event.error = 1;
  event.cache_hit = 1;
  event.traced = 1;
  event.bound = 1;
  event.set_verb("contained");
  event.set_regime("section3");
  event.set_catalog("ca\"rs");  // escaping goes through the AS-safe path
  event.set_bound_site("linearization_dfs");
  WideEvent::CopyInto(event.phases[0].name, WideEvent::kPhaseChars, "decide");
  event.phases[0].ns = 900000;

  char buf[2048];
  size_t len = obs::RenderWideEventJson(event, buf, sizeof(buf));
  ASSERT_GT(len, 0u);
  Result<json::Value> parsed = json::Parse(std::string(buf, len));
  ASSERT_TRUE(parsed.ok()) << buf;
  EXPECT_DOUBLE_EQ(parsed->Find("request_id")->number_value, 42);
  EXPECT_EQ(parsed->Find("verb")->string_value, "contained");
  EXPECT_EQ(parsed->Find("regime")->string_value, "section3");
  EXPECT_EQ(parsed->Find("catalog")->string_value, "ca\"rs");
  EXPECT_EQ(parsed->Find("bound_site")->string_value, "linearization_dfs");
  EXPECT_DOUBLE_EQ(parsed->Find("latency_us")->number_value, 1234);
  EXPECT_DOUBLE_EQ(parsed->Find("workers")->number_value, 4);
  EXPECT_DOUBLE_EQ(parsed->Find("catalog_version")->number_value, 3);
  EXPECT_TRUE(parsed->Find("error")->bool_value);
  EXPECT_TRUE(parsed->Find("cache_hit")->bool_value);
  EXPECT_TRUE(parsed->Find("traced")->bool_value);
  EXPECT_TRUE(parsed->Find("bound")->bool_value);
  ASSERT_EQ(parsed->Find("phases")->array.size(), 1u);
  EXPECT_EQ(parsed->Find("phases")->array[0].Find("name")->string_value,
            "decide");
  EXPECT_DOUBLE_EQ(parsed->Find("phases")->array[0].Find("ns")->number_value,
                   900000);
}

// An empty verb or regime (a request that failed before its regime was
// known) arrives as a default string_view whose data() is null; copying
// it must not touch memcpy (UBSan's nonnull-attribute check in CI).
TEST(FlightJsonTest, EmptyFieldsRecordAndRenderAsEmptyStrings) {
  WideEvent event;
  event.request_id = 7;
  event.set_verb("contained");
  event.set_regime(std::string_view());
  event.set_catalog(std::string_view());
  event.set_bound_site(std::string_view());
  EXPECT_STREQ(event.regime, "");
  FlightRecorder flight({/*ring_capacity=*/8, /*arena_max_bytes=*/1024,
                         /*head_sample_every=*/0});
  flight.Record(event);
  std::vector<WideEvent> recent = flight.RecentEvents();
  ASSERT_EQ(recent.size(), 1u);
  char buf[2048];
  size_t len = obs::RenderWideEventJson(recent[0], buf, sizeof(buf));
  Result<json::Value> parsed = json::Parse(std::string(buf, len));
  ASSERT_TRUE(parsed.ok()) << buf;
  EXPECT_EQ(parsed->Find("verb")->string_value, "contained");
  EXPECT_EQ(parsed->Find("regime")->string_value, "");
  EXPECT_EQ(parsed->Find("catalog")->string_value, "");
}

/// Whether `s` is well-formed UTF-8 (no truncated or stray sequences).
bool IsValidUtf8(std::string_view s) {
  size_t i = 0;
  while (i < s.size()) {
    const unsigned char lead = static_cast<unsigned char>(s[i]);
    const size_t len = lead < 0x80 ? 1 : (lead >> 5) == 0x6 ? 2
                                     : (lead >> 4) == 0xE ? 3
                                     : (lead >> 3) == 0x1E ? 4 : 0;
    if (len == 0 || i + len > s.size()) return false;
    for (size_t k = 1; k < len; ++k) {
      if ((static_cast<unsigned char>(s[i + k]) & 0xC0) != 0x80) return false;
    }
    i += len;
  }
  return true;
}

// A string field cut at its byte capacity must not split a code point:
// a catalog of 20 two-byte characters used to render as 15 of them plus a
// dangling lead byte, which no JSON reader accepts.
TEST(FlightJsonTest, TruncatedFieldsStayValidUtf8) {
  std::string two_byte;
  for (int i = 0; i < 20; ++i) two_byte += "\xc3\xa9";  // é
  WideEvent event;
  event.request_id = 1;
  event.set_catalog(two_byte);
  EXPECT_EQ(std::string(event.catalog), two_byte.substr(0, 30));
  char buf[2048];
  size_t len = obs::RenderWideEventJson(event, buf, sizeof(buf));
  EXPECT_TRUE(IsValidUtf8(std::string_view(buf, len))) << buf;

  // Three- and four-byte code points, at every alignment against the cap.
  for (const std::string unit : {"\xe2\x82\xac", "\xf0\x9f\x98\x80"}) {
    for (int pad = 0; pad < 4; ++pad) {
      std::string name(static_cast<size_t>(pad), 'a');
      for (int i = 0; i < 12; ++i) name += unit;
      event.set_catalog(name);
      const std::string kept(event.catalog);
      EXPECT_TRUE(IsValidUtf8(kept)) << "pad " << pad;
      EXPECT_EQ(name.compare(0, kept.size(), kept), 0);
      EXPECT_GT(kept.size() + unit.size(), WideEvent::kCatalogChars - 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Retention policy against a deterministic window clock.

TEST(FlightRetentionTest, TailThresholdTracksTrailingWindowP99) {
  ServiceMetrics metrics;
  uint64_t now_sec = 1000;
  metrics.set_window_clock_for_test([&now_sec] { return now_sec; });

  // No samples yet: the latency criterion is disabled.
  EXPECT_EQ(metrics.TailThresholdMicros(ServiceVerb::kContained), 0u);

  // 100 samples, latencies 1..100 µs: the window p99 picks a real sample
  // from the top of that range.
  for (uint64_t i = 1; i <= 100; ++i) {
    metrics.RecordRequest(Regime::kSection3, i, /*error=*/false,
                          /*cache_hit=*/false);
  }
  ++now_sec;  // invalidate the per-second threshold cache
  uint64_t threshold = metrics.TailThresholdMicros(ServiceVerb::kContained);
  EXPECT_GE(threshold, 90u);
  EXPECT_LE(threshold, 100u);

  // The other verbs saw no traffic; their thresholds stay disabled.
  EXPECT_EQ(metrics.TailThresholdMicros(ServiceVerb::kPlan), 0u);

  // Advance past the short trailing window: the samples age out and the
  // criterion disables again.
  now_sec += ServiceMetrics::kShortWindowSecs + 1;
  EXPECT_EQ(metrics.TailThresholdMicros(ServiceVerb::kContained), 0u);
}

TEST(FlightRetentionTest, RecordFlightRetainsErrorsAndTailAndHeadSample) {
  ServiceMetrics metrics;
  uint64_t now_sec = 2000;
  metrics.set_window_clock_for_test([&now_sec] { return now_sec; });
  metrics.flight().Configure({/*ring_capacity=*/64,
                              /*arena_max_bytes=*/64 * 1024,
                              /*head_sample_every=*/64});

  // Establish a trailing p99 around 100 µs.
  for (uint64_t i = 1; i <= 100; ++i) {
    metrics.RecordRequest(Regime::kSection3, i, false, false);
  }
  ++now_sec;

  auto make_event = [&metrics](uint64_t latency, uint8_t error) {
    WideEvent event;
    event.request_id = metrics.flight().NextRequestId();
    event.latency_micros = latency;
    event.error = error;
    event.set_verb("contained");
    event.set_regime("section3");
    return event;
  };

  // Id 1 is the head sample: retained although fast and healthy.
  WideEvent head = make_event(/*latency=*/5, /*error=*/0);
  metrics.RecordFlight(ServiceVerb::kContained, head, nullptr);
  EXPECT_TRUE(metrics.flight().FindRetained(head.request_id).has_value());

  // Fast, healthy, off the head sample: recorded but not retained.
  WideEvent fast = make_event(/*latency=*/5, /*error=*/0);
  metrics.RecordFlight(ServiceVerb::kContained, fast, nullptr);
  EXPECT_FALSE(metrics.flight().FindRetained(fast.request_id).has_value());

  // Slower than the trailing p99: retained.
  WideEvent slow = make_event(/*latency=*/5000, /*error=*/0);
  metrics.RecordFlight(ServiceVerb::kContained, slow, nullptr);
  EXPECT_TRUE(metrics.flight().FindRetained(slow.request_id).has_value());

  // Errored (covers kBoundReached): retained even though fast.
  WideEvent errored = make_event(/*latency=*/5, /*error=*/1);
  metrics.RecordFlight(ServiceVerb::kContained, errored, nullptr);
  EXPECT_TRUE(metrics.flight().FindRetained(errored.request_id).has_value());

  // Every RecordFlight stamped a wall-clock timestamp and hit the ring.
  EXPECT_EQ(metrics.flight().recorded_total(), 4u);
  for (const WideEvent& event : metrics.flight().RecentEvents(4)) {
    EXPECT_GT(event.ts_unix_micros, 0u);
  }
}

// ---------------------------------------------------------------------------
// Crash black box.

TEST(FlightCrashTest, CrashHandlerDumpsRingAndStatuszOnAbort) {
  std::string path = testing::TempDir() + "/flight_crash_dump.txt";
  std::remove(path.c_str());

  FlightRecorder flight({/*ring_capacity=*/16, /*arena_max_bytes=*/4096,
                         /*head_sample_every=*/0});
  for (uint64_t id = 1; id <= 3; ++id) {
    flight.Record(SelfConsistentEvent(id));
  }
  flight.StoreStatuszSnapshot("{\"service\":\"relcont\",\"draining\":false}");

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: install the handler (never in the parent — gtest must not
    // inherit it) and die the way a real crash does.
    obs::InstallCrashHandler(&flight, path.c_str());
    raise(SIGABRT);
    _exit(97);  // unreachable: the handler re-raises with default action
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child exited " << wstatus;
  EXPECT_EQ(WTERMSIG(wstatus), SIGABRT);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no crash dump at " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines.front().rfind("relcont-crash-v1 signal=6 recorded=3", 0),
            0u)
      << lines.front();
  EXPECT_EQ(lines.back(), "END");

  int statusz_lines = 0;
  int event_lines = 0;
  for (const std::string& dump_line : lines) {
    if (dump_line.rfind("STATUSZ ", 0) == 0) {
      ++statusz_lines;
      Result<json::Value> statusz = json::Parse(dump_line.substr(8));
      ASSERT_TRUE(statusz.ok()) << dump_line;
      EXPECT_EQ(statusz->Find("service")->string_value, "relcont");
    } else if (dump_line.rfind("EVENT ", 0) == 0) {
      ++event_lines;
      Result<json::Value> event = json::Parse(dump_line.substr(6));
      ASSERT_TRUE(event.ok()) << dump_line;
      uint64_t id =
          static_cast<uint64_t>(event->Find("request_id")->number_value);
      WideEvent expected = SelfConsistentEvent(id);
      EXPECT_DOUBLE_EQ(event->Find("latency_us")->number_value,
                       static_cast<double>(expected.latency_micros));
    }
  }
  EXPECT_EQ(statusz_lines, 1);
  EXPECT_EQ(event_lines, 3);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace relcont
