// Tests for the observability layer that do not need a live TCP server:
// the JSON escaper/parser, hostile-name escaping in the trace exporters,
// the shared MetricsSnapshot renderers, the access-log event format and
// file behavior (sampling, rotation), histogram bucket edges, and
// slow-log tie-breaking. The networked half lives in obs_server_test.cc.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "exposition_fixtures.h"
#include "gtest/gtest.h"
#include "obs/access_log.h"
#include "obs/exposition.h"
#include "obs/http.h"
#include "service/metrics.h"
#include "service/service.h"
#include "trace/trace.h"

namespace relcont {
namespace {

// ---------------------------------------------------------------------------
// JSON: escaping and parsing round-trips.

TEST(JsonTest, EscapesControlAndQuoteCharacters) {
  std::string out;
  json::AppendEscaped("a\"b\\c\nd\te\r\x01", &out);
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\r\\u0001\"");
}

TEST(JsonTest, ParseRoundTripsEscapedStrings) {
  const std::string hostile =
      "quote:\" backslash:\\ newline:\n tab:\t bell:\x07 high:\xc3\xa9";
  std::string doc = "{\"key\":";
  json::AppendEscaped(hostile, &doc);
  doc += "}";
  Result<json::Value> parsed = json::Parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* value = parsed->Find("key");
  ASSERT_NE(value, nullptr);
  ASSERT_TRUE(value->is_string());
  EXPECT_EQ(value->string_value, hostile);
}

TEST(JsonTest, ParsesNestedStructures) {
  Result<json::Value> parsed = json::Parse(
      "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": true, \"d\": null}, "
      "\"e\": \"\\u0041\\u00e9\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* a = parsed->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[0].number_value, 1.0);
  EXPECT_DOUBLE_EQ(a->array[2].number_value, -300.0);
  const json::Value* b = parsed->Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->Find("c")->bool_value);
  EXPECT_TRUE(b->Find("d")->is_null());
  EXPECT_EQ(parsed->Find("e")->string_value, "A\xc3\xa9");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(json::Parse("{").ok());
  EXPECT_FALSE(json::Parse("{} trailing").ok());
  EXPECT_FALSE(json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(json::Parse("\"unterminated").ok());
  EXPECT_FALSE(json::Parse("").ok());
}

// ---------------------------------------------------------------------------
// Trace exporters with hostile span names: both JSON exports must stay
// parseable whatever the instrumentation sites call their spans.

TEST(TraceJsonTest, ChromeJsonSurvivesHostileSpanNames) {
  trace::TraceContext ctx;
  int root = ctx.OpenSpan("root \"quoted\\path\"\nnewline");
  int child = ctx.OpenSpan("child\ttab");
  ctx.AddCount(trace::Counter::kHomBacktracks, 3);
  ctx.CloseSpan(child);
  ctx.CloseSpan(root);

  std::string chrome = ctx.ToChromeJson();
  Result<json::Value> parsed = json::Parse(chrome);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  EXPECT_EQ(events->array[0].Find("name")->string_value,
            "root \"quoted\\path\"\nnewline");
}

// ---------------------------------------------------------------------------
// The shared snapshot renderers: METRICS text and Prometheus exposition
// must agree because they render the same MetricsSnapshot.

TEST(ExpositionTest, TextAndPrometheusRenderTheSameCounters) {
  obs::MetricsSnapshot s = testing_fixtures::FixtureSnapshot();
  std::string text = obs::RenderMetricsText(s);
  std::string prom = obs::RenderPrometheusText(s);

  EXPECT_NE(text.find("requests_total 42\n"), std::string::npos);
  EXPECT_NE(prom.find("relcont_requests_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("errors_total 2\n"), std::string::npos);
  EXPECT_NE(prom.find("relcont_errors_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("decisions_by_regime{section3} 40"),
            std::string::npos);
  EXPECT_NE(prom.find("relcont_decisions_total{regime=\"section3\"} 40"),
            std::string::npos);
  EXPECT_NE(text.find("cache_misses 35"), std::string::npos);
  EXPECT_NE(prom.find("relcont_cache_misses_total 35"), std::string::npos);
  // The dense-order engine counters render in lockstep, distinct values
  // each so a transposed field cannot slip through.
  EXPECT_NE(text.find("dense_order_propagations_total 901"),
            std::string::npos);
  EXPECT_NE(prom.find("relcont_dense_order_propagations_total 901"),
            std::string::npos);
  EXPECT_NE(text.find("dense_order_pruned_branches_total 77"),
            std::string::npos);
  EXPECT_NE(prom.find("relcont_dense_order_pruned_branches_total 77"),
            std::string::npos);
  EXPECT_NE(text.find("dense_order_bound_hits_total 3"), std::string::npos);
  EXPECT_NE(prom.find("relcont_dense_order_bound_hits_total 3"),
            std::string::npos);
  EXPECT_NE(text.find("latency_us_count 42"), std::string::npos);
  EXPECT_NE(prom.find("relcont_request_latency_microseconds_count 42"),
            std::string::npos);
  // Both expose the +Inf bucket in their own convention.
  EXPECT_NE(text.find("latency_us_bucket{le=\"+Inf\"} 42"),
            std::string::npos);
  EXPECT_NE(prom.find(
                "relcont_request_latency_microseconds_bucket{le=\"+Inf\"} "
                "42"),
            std::string::npos);
  // Prometheus label values escape backslashes and quotes.
  EXPECT_NE(prom.find("phase=\"decide \\\"hostile\\\"\\\\phase\""),
            std::string::npos);
  // Identity lines come from the snapshot, not from global state.
  EXPECT_NE(text.find("library_version 1.2.3"), std::string::npos);
  EXPECT_NE(prom.find("version=\"1.2.3\""), std::string::npos);
  EXPECT_NE(text.find("start_time_unix_seconds 1700000000"),
            std::string::npos);
}

// Golden renderings of the fixture snapshots and an empty one:
// /metrics and /statusz must match the committed bytes. METRICS is compared
// as a multiset of lines, because its line order is not a contract, with
// each indented span-tree line kept attached to the slow_request line it
// follows.

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(RELCONT_TESTDATA_DIR) + "/exposition/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> SortedMetricsEntries(const std::string& text) {
  std::vector<std::string> entries;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("    ", 0) == 0 && !entries.empty()) {
      entries.back() += "\n" + line;
    } else {
      entries.push_back(line);
    }
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

TEST(ExpositionTest, RenderingsMatchGoldenFiles) {
  const std::pair<std::string, obs::MetricsSnapshot> cases[] = {
      {"full", testing_fixtures::FullyPopulatedSnapshot()},
      {"fixture", testing_fixtures::FixtureSnapshot()},
      {"empty", obs::MetricsSnapshot{}}};
  for (const auto& [name, snapshot] : cases) {
    SCOPED_TRACE(name);
    EXPECT_EQ(obs::RenderPrometheusText(snapshot),
              ReadGolden(name + ".prom.txt"));
    const std::string statusz = obs::RenderStatuszJson(snapshot);
    EXPECT_EQ(statusz, ReadGolden(name + ".statusz.json"));
    EXPECT_TRUE(json::Parse(statusz).ok());
    EXPECT_EQ(SortedMetricsEntries(obs::RenderMetricsText(snapshot)),
              SortedMetricsEntries(ReadGolden(name + ".metrics.txt")));
  }
}

// ---------------------------------------------------------------------------
// Latency histogram bucket edges.

TEST(LatencyHistogramTest, BucketBoundsEdges) {
  // Bucket 0 is [0, 1) µs.
  EXPECT_EQ(LatencyHistogram::BucketBounds(0),
            (std::pair<uint64_t, uint64_t>{0, 1}));
  // Interior buckets are [2^(i-1), 2^i).
  EXPECT_EQ(LatencyHistogram::BucketBounds(1),
            (std::pair<uint64_t, uint64_t>{1, 2}));
  EXPECT_EQ(LatencyHistogram::BucketBounds(10),
            (std::pair<uint64_t, uint64_t>{512, 1024}));
  // The last bucket is unbounded: upper == 0 by convention.
  auto last = LatencyHistogram::BucketBounds(LatencyHistogram::kBuckets - 1);
  EXPECT_EQ(last.first, uint64_t{1} << (LatencyHistogram::kBuckets - 2));
  EXPECT_EQ(last.second, 0u);
}

TEST(LatencyHistogramTest, RecordsIntoEdgeBuckets) {
  LatencyHistogram hist;
  hist.Record(0);                 // bucket 0
  hist.Record(uint64_t{1} << 40); // far beyond the last bounded bucket
  EXPECT_EQ(hist.BucketCount(0), 1u);
  EXPECT_EQ(hist.BucketCount(LatencyHistogram::kBuckets - 1), 1u);
  EXPECT_EQ(hist.TotalCount(), 2u);
}

// ---------------------------------------------------------------------------
// Slow-log tie-breaking: equal latencies keep arrival order, and an
// arrival that merely equals the current minimum does not displace it.

void RecordSlow(ServiceMetrics* metrics, uint64_t latency,
                const std::string& description) {
  trace::TraceContext ctx;
  int span = ctx.OpenSpan("decide");
  ctx.CloseSpan(span);
  metrics->RecordTrace(Regime::kSection3, latency, ctx, description);
}

TEST(SlowLogTest, EqualLatenciesKeepArrivalOrder) {
  ServiceMetrics metrics;
  metrics.set_slow_log_capacity(2);
  RecordSlow(&metrics, 500, "A");
  RecordSlow(&metrics, 500, "B");
  std::vector<SlowRequest> log = metrics.SlowLog();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].description, "A");
  EXPECT_EQ(log[1].description, "B");
}

TEST(SlowLogTest, TieWithMinimumDoesNotDisplaceWhenFull) {
  ServiceMetrics metrics;
  metrics.set_slow_log_capacity(2);
  RecordSlow(&metrics, 500, "A");
  RecordSlow(&metrics, 500, "B");
  RecordSlow(&metrics, 500, "C");  // equal to the min of a full log
  std::vector<SlowRequest> log = metrics.SlowLog();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].description, "A");
  EXPECT_EQ(log[1].description, "B");
}

TEST(SlowLogTest, StrictlyWorseDisplacesTheMinimum) {
  ServiceMetrics metrics;
  metrics.set_slow_log_capacity(2);
  RecordSlow(&metrics, 100, "A");
  RecordSlow(&metrics, 500, "B");
  RecordSlow(&metrics, 500, "C");  // beats A (100), ties with B
  std::vector<SlowRequest> log = metrics.SlowLog();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].description, "B");
  EXPECT_EQ(log[1].description, "C");
}

// ---------------------------------------------------------------------------
// Access log: event shape, hostile-content escaping, sampling, rotation.

TEST(AccessLogTest, RenderEventIsValidJsonWithHostileContent) {
  DecisionRequest request;
  request.q1_text = "q1(X) :- r(X, \"weird\\name\").";
  request.q2_text = "q2(X) :- r(X, Y).";
  request.catalog = "cat\"alog\n";
  DecisionResponse response;
  response.status = Status::InvalidArgument("parse error: got \"}\"\\");
  response.regime = Regime::kSection3;
  response.contained = true;
  response.cache_hit = true;
  response.latency_micros = 77;
  response.catalog_version = 3;

  std::string line = obs::AccessLog::RenderEvent(9, 1700000000000000,
                                                 request, response);
  Result<json::Value> parsed = json::Parse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
  EXPECT_DOUBLE_EQ(parsed->Find("id")->number_value, 9);
  EXPECT_EQ(parsed->Find("catalog")->string_value, "cat\"alog\n");
  EXPECT_DOUBLE_EQ(parsed->Find("catalog_version")->number_value, 3);
  EXPECT_EQ(parsed->Find("q1")->string_value, request.q1_text);
  EXPECT_EQ(parsed->Find("regime")->string_value, "section3");
  EXPECT_TRUE(parsed->Find("contained")->bool_value);
  EXPECT_TRUE(parsed->Find("cache_hit")->bool_value);
  EXPECT_DOUBLE_EQ(parsed->Find("latency_us")->number_value, 77);
  EXPECT_NE(parsed->Find("error")->string_value.find("parse error"),
            std::string::npos);
  // No trace on the response — no phases array.
  EXPECT_EQ(parsed->Find("phases"), nullptr);
}

TEST(AccessLogTest, RenderEventIncludesTopLevelPhases) {
  DecisionRequest request;
  DecisionResponse response;
  auto ctx = std::make_shared<trace::TraceContext>();
  int root = ctx->OpenSpan("decide");
  int child = ctx->OpenSpan("parse");
  int grandchild = ctx->OpenSpan("intern");  // depth 2: excluded
  ctx->CloseSpan(grandchild);
  ctx->CloseSpan(child);
  int child2 = ctx->OpenSpan("containment");
  ctx->CloseSpan(child2);
  ctx->CloseSpan(root);
  response.trace = ctx;

  std::string line =
      obs::AccessLog::RenderEvent(1, 1700000000000000, request, response);
  Result<json::Value> parsed = json::Parse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
  const json::Value* phases = parsed->Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->is_array());
  std::vector<std::string> names;
  for (const json::Value& phase : phases->array) {
    names.push_back(phase.Find("phase")->string_value);
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"decide", "parse", "containment"}));
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(AccessLogTest, SamplingKeepsEveryNthRequest) {
  std::string path = TempPath("access_sample.jsonl");
  std::remove(path.c_str());
  obs::AccessLogOptions options;
  options.path = path;
  options.sample = 3;
  auto log = obs::AccessLog::Open(options);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  DecisionRequest request;
  DecisionResponse response;
  for (int i = 0; i < 9; ++i) (*log)->Record(request, response);
  EXPECT_EQ((*log)->requests_seen(), 9u);
  log->reset();  // flush + close

  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 3u);  // ids 1, 4, 7
  std::vector<double> ids;
  for (const std::string& line : lines) {
    Result<json::Value> parsed = json::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    ids.push_back(parsed->Find("id")->number_value);
  }
  EXPECT_EQ(ids, (std::vector<double>{1, 4, 7}));
}

TEST(AccessLogTest, RotatesAtSizeLimit) {
  std::string path = TempPath("access_rotate.jsonl");
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  obs::AccessLogOptions options;
  options.path = path;
  options.max_bytes = 512;
  auto log = obs::AccessLog::Open(options);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  DecisionRequest request;
  request.q1_text = std::string(100, 'x');  // make events chunky
  DecisionResponse response;
  for (int i = 0; i < 20; ++i) (*log)->Record(request, response);
  log->reset();

  std::vector<std::string> active = ReadLines(path);
  std::vector<std::string> rotated = ReadLines(path + ".1");
  // One rotated generation is kept; older ones age out by design.
  ASSERT_FALSE(rotated.empty());
  ASSERT_FALSE(active.empty());
  EXPECT_LE(active.size() + rotated.size(), 20u);
  // Rotation never truncates mid-line: every surviving line parses, and
  // the newest event is in the active file.
  for (const std::string& line : active) {
    EXPECT_TRUE(json::Parse(line).ok()) << line;
  }
  for (const std::string& line : rotated) {
    EXPECT_TRUE(json::Parse(line).ok()) << line;
  }
  Result<json::Value> newest = json::Parse(active.back());
  ASSERT_TRUE(newest.ok());
  EXPECT_DOUBLE_EQ(newest->Find("id")->number_value, 20);
}

// ---------------------------------------------------------------------------
// HTTP parsing.

TEST(HttpTest, SniffsRequestLines) {
  EXPECT_TRUE(obs::LooksLikeHttp("GET /metrics HTTP/1.1"));
  EXPECT_TRUE(obs::LooksLikeHttp("HEAD / HTTP/1.0"));
  EXPECT_FALSE(obs::LooksLikeHttp("CONTAINED? q1 q2 @cars"));
  EXPECT_FALSE(obs::LooksLikeHttp("METRICS"));
  EXPECT_FALSE(obs::LooksLikeHttp("GET lost"));
}

TEST(HttpTest, ParsesRequestHeadWithHeaders) {
  Result<obs::HttpRequest> parsed = obs::ParseHttpRequest(
      "GET /metrics?window=60 HTTP/1.1\r\nHost: localhost:8080\r\n"
      "User-Agent: curl/8.0\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_EQ(parsed->target, "/metrics?window=60");
  EXPECT_EQ(parsed->path(), "/metrics");
  EXPECT_EQ(parsed->version, "HTTP/1.1");
  const std::string* host = parsed->FindHeader("host");
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(*host, "localhost:8080");
  EXPECT_EQ(parsed->FindHeader("absent"), nullptr);
}

TEST(HttpTest, RejectsMalformedRequestLines) {
  EXPECT_FALSE(obs::ParseHttpRequest("GET\r\n").ok());
  EXPECT_FALSE(obs::ParseHttpRequest("GET /x\r\n").ok());
  EXPECT_FALSE(obs::ParseHttpRequest("GET metrics HTTP/1.1\r\n").ok());
  EXPECT_FALSE(obs::ParseHttpRequest("GET / FTP/1.1\r\n").ok());
  EXPECT_FALSE(
      obs::ParseHttpRequest("GET / HTTP/1.1\r\nbad header\r\n").ok());
}

TEST(HttpTest, RendersResponsesWithContentLength) {
  std::string response =
      obs::RenderHttpResponse(200, "text/plain", "hello\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 6\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(response.substr(response.size() - 6), "hello\n");

  std::string head =
      obs::RenderHttpResponse(200, "text/plain", "hello\n", true);
  EXPECT_NE(head.find("Content-Length: 6\r\n"), std::string::npos);
  EXPECT_EQ(head.substr(head.size() - 4), "\r\n\r\n");
}

}  // namespace
}  // namespace relcont
