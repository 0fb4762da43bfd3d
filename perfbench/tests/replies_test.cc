// Self-tests of the benchmark's own parsing: reply lines, the `<N>us`
// latency, percentile selection and /metrics deltas. Exits non-zero on the
// first failed check.
//
//   .bench_build/perfbench/perfbench_selftest

#include <cstdio>
#include <string>
#include <vector>

#include "replies.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

using perfbench::ExtractMicros;
using perfbench::ParseReplyLine;
using perfbench::Reply;
using perfbench::ReplyKind;

void TestVerdictLines() {
  Reply yes = ParseReplyLine("YES section3 HIT 3us id=42");
  CHECK(yes.kind == ReplyKind::kYes);
  CHECK(yes.cache_hit);
  CHECK(yes.server_us == 3);
  CHECK(yes.request_id == 42);

  // The witness is datalog: a `9us`-looking token or an `id=` inside it
  // must not be taken for the reply's own fields.
  Reply no = ParseReplyLine(
      "NO theorem52 MISS 1187us id=7 witness: q(X) :- p(X, 9us), id=3.");
  CHECK(no.kind == ReplyKind::kNo);
  CHECK(!no.cache_hit);
  CHECK(no.server_us == 1187);
  CHECK(no.request_id == 7);
}

void TestErrLines() {
  Reply with_id =
      ParseReplyLine("ERR [id=19] BoundReached: bound reached [cegar_search]");
  CHECK(with_id.kind == ReplyKind::kErr);
  CHECK(with_id.request_id == 19);
  CHECK(with_id.server_us == -1);

  Reply plain = ParseReplyLine("ERR InvalidArgument: unknown catalog 'prod'");
  CHECK(plain.kind == ReplyKind::kErr);
  CHECK(plain.request_id == 0);

  CHECK(ParseReplyLine("ERR unknown-verb 'FOO' — try HELP").kind ==
        ReplyKind::kErr);
}

void TestOkLines() {
  Reply plan = ParseReplyLine(
      "OK plan catalog=pv v3 kind=recursive rules=17 dom=dom_0 MISS 412us "
      "id=88");
  CHECK(plan.kind == ReplyKind::kOkPlan);
  CHECK(plan.rules == 17);
  CHECK(!plan.cache_hit);
  CHECK(plan.server_us == 412);
  CHECK(plan.request_id == 88);
  CHECK(plan.dom == "dom_0");

  Reply warm = ParseReplyLine(
      "OK plan catalog=rv v1 kind=ucq rules=2 HIT 5us id=9");
  CHECK(warm.kind == ReplyKind::kOkPlan);
  CHECK(warm.cache_hit);
  CHECK(warm.rules == 2);
  CHECK(warm.dom.empty());

  Reply query = ParseReplyLine("OK query q rules=1");
  CHECK(query.kind == ReplyKind::kOkQuery);
  CHECK(query.rules == 1);
  CHECK(query.server_us == -1);

  Reply catalog = ParseReplyLine("OK catalog pv v2 views=200 patterns=97");
  CHECK(catalog.kind == ReplyKind::kOkCatalog);
  CHECK(catalog.rules == -1);

  CHECK(ParseReplyLine("").kind == ReplyKind::kOther);
  CHECK(ParseReplyLine("QUEUED 3").kind == ReplyKind::kOther);
}

void TestExtractMicros() {
  CHECK(ExtractMicros("YES section3 MISS 184us id=1") == 184);
  CHECK(ExtractMicros("YES section3 MISS 0us id=1") == 0);
  CHECK(ExtractMicros("OK query q rules=1") == -1);
  CHECK(ExtractMicros("us 12 12u s") == -1);
  CHECK(ExtractMicros("NO section3 HIT xus 7us") == 7);
  CHECK(ExtractMicros("NO section3 HIT 7us witness: q(X) :- p(X, 1us).") == 7);
  CHECK(ExtractMicros("NO section3 witness: q(X) :- p(X, 1us).") == -1);
}

void TestRenamePredicate() {
  using perfbench::RenamePredicate;
  CHECK(RenamePredicate("dom33(X) :- dom33(Y), v(X, Y).", "dom33", "dom") ==
        "dom(X) :- dom(Y), v(X, Y).");
  // Only whole predicate names: not a longer name, not a suffix of one,
  // not a constant without an argument list.
  CHECK(RenamePredicate("dom330(X) :- xdom33(X), p(dom33).", "dom33", "dom") ==
        "dom330(X) :- xdom33(X), p(dom33).");
  CHECK(RenamePredicate("q(X) :- p(X).", "", "dom") == "q(X) :- p(X).");
}

void TestPercentiles() {
  using perfbench::Median;
  using perfbench::PercentileSorted;
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  CHECK(PercentileSorted(v, 0.50) == 50);
  CHECK(PercentileSorted(v, 0.99) == 99);
  CHECK(PercentileSorted(v, 1.0) == 100);
  CHECK(PercentileSorted(v, 0.0) == 1);
  std::vector<double> small = {3, 10};
  CHECK(PercentileSorted(small, 0.5) == 3);
  CHECK(PercentileSorted(small, 0.51) == 10);
  CHECK(PercentileSorted({}, 0.5) == 0);
  CHECK(Median({5, 1, 3}) == 3);
  CHECK(Median({4, 1, 3, 2}) == 2.5);
  CHECK(Median({}) == 0);
}

void TestMetricsDelta() {
  const char* before_text =
      "# HELP relcont_requests_total Containment requests answered\n"
      "# TYPE relcont_requests_total counter\n"
      "relcont_requests_total 10\n"
      "relcont_requests_total_extra 99\n"
      "relcont_bound_hits_total{site=\"cegar_search\"} 1\n"
      "relcont_build_info{version=\"0.1 beta\",compiler=\"g++ 12\"} 1\n";
  const char* after_text =
      "relcont_requests_total 25\r\n"
      "relcont_requests_total_extra 0\n"
      "relcont_bound_hits_total{site=\"cegar_search\"} 3\n"
      "relcont_bound_hits_total{site=\"containment_check\"} 4\n"
      "relcont_build_info{version=\"0.1 beta\",compiler=\"g++ 12\"} 1\n";
  auto before = perfbench::ParsePrometheus(before_text);
  auto after = perfbench::ParsePrometheus(after_text);
  CHECK(before.size() == 4);
  CHECK(before.at("relcont_build_info{version=\"0.1 beta\",compiler=\"g++ 12\"}") == 1);
  CHECK(perfbench::MetricDelta(before, after, "relcont_requests_total") == 15);
  CHECK(perfbench::MetricDelta(before, after, "relcont_bound_hits_total") == 6);
  CHECK(perfbench::MetricDelta(before, after, "relcont_absent_total") == 0);

  std::string http =
      "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nrelcont_x 1\n";
  CHECK(perfbench::HttpBody(http) == "relcont_x 1\n");
  CHECK(perfbench::HttpBody("no blank line").empty());
}

}  // namespace

int main() {
  TestVerdictLines();
  TestErrLines();
  TestOkLines();
  TestExtractMicros();
  TestRenamePredicate();
  TestPercentiles();
  TestMetricsDelta();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
