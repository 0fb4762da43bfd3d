#ifndef PERFBENCH_REPLIES_H_
#define PERFBENCH_REPLIES_H_

// Parsing of what the server sends back: protocol reply lines, the
// server-reported `<N>us` latency, Prometheus `/metrics` text, plus the
// percentile selection the reports use. Everything here runs outside the
// timed round trip; the self-tests in ../tests/replies_test.cc cover it.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class ReplyKind {
  kYes,        // YES <regime> HIT|MISS <N>us id=<N> ...
  kNo,         // NO <regime> HIT|MISS <N>us id=<N> witness: ...
  kOkPlan,     // OK plan catalog=<c> v<V> kind=... rules=<N> HIT|MISS <N>us id=<N>
  kOkQuery,    // OK query <name> rules=<N>
  kOkCatalog,  // OK catalog <name> v<V> views=<k> patterns=<m>
  kErr,        // ERR [id=<N>] <status> | ERR <status>
  kOther,
};

struct Reply {
  ReplyKind kind = ReplyKind::kOther;
  /// The HIT token was present (decision or plan cache hit).
  bool cache_hit = false;
  /// Server-reported latency in microseconds, -1 when absent.
  int64_t server_us = -1;
  /// The `id=<N>` request id (also inside `ERR [id=<N>]`), 0 when absent.
  uint64_t request_id = 0;
  /// `rules=<N>` of OK plan / OK query replies, -1 when absent.
  int rules = -1;
  /// `dom=<pred>` of recursive OK plan replies, "" when absent.
  std::string dom;
};

/// Classifies one reply line (without its trailing newline).
Reply ParseReplyLine(std::string_view line);

/// The server-reported latency: the first whitespace-separated token of
/// the form `<digits>us`. -1 when the line carries none.
int64_t ExtractMicros(std::string_view line);

/// `text` with every occurrence of the predicate `from` (an identifier
/// directly followed by '(') renamed to `to`. Plans name their dom
/// accumulator with a fresh symbol whose number depends on the arena, so
/// served and expected plans are compared after renaming it.
std::string RenamePredicate(std::string_view text, std::string_view from,
                            std::string_view to);

/// Nearest-rank percentile (q in [0, 1]) of `values`, which must be sorted
/// ascending. 0 for an empty input.
double PercentileSorted(const std::vector<double>& values, double q);

/// Median of an unsorted sample (sorts a copy). 0 for an empty input.
double Median(std::vector<double> values);

/// Prometheus text exposition -> series value, keyed by the series as
/// written (`name` or `name{labels}`). Comment and blank lines are skipped.
std::map<std::string, double> ParsePrometheus(std::string_view text);

/// Sum over every series named `name` (any label set) in `after`, minus the
/// same sum in `before`.
double MetricDelta(const std::map<std::string, double>& before,
                   const std::map<std::string, double>& after,
                   std::string_view name);

/// The body of an HTTP response (everything after the blank line), or ""
/// when there is no blank line.
std::string_view HttpBody(std::string_view response);

}  // namespace perfbench

#endif  // PERFBENCH_REPLIES_H_
