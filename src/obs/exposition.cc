#include "obs/exposition.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>
#include <utility>

#include "common/json.h"

namespace relcont {
namespace obs {

namespace {

void AppendLine(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void AppendLine(std::string* out, const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list sizing;
  va_copy(sizing, args);
  int needed = std::vsnprintf(nullptr, 0, format, sizing);
  va_end(sizing);
  if (needed > 0) {
    size_t old_size = out->size();
    out->resize(old_size + static_cast<size_t>(needed) + 1);
    std::vsnprintf(out->data() + old_size,
                   static_cast<size_t>(needed) + 1, format, args);
    out->resize(old_size + static_cast<size_t>(needed));
  }
  va_end(args);
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string LabelEscaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

unsigned long long ULL(uint64_t v) {
  return static_cast<unsigned long long>(v);
}

double HitRate(uint64_t hits, uint64_t misses) {
  const uint64_t lookups = hits + misses;
  if (lookups == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(lookups);
}

using Snap = MetricsSnapshot;

/// The sample lister of a family with one sample per element of the
/// snapshot vector `items`, made by `make`.
template <typename T, typename Make>
std::function<std::vector<SeriesSample>(const Snap&)> Each(
    std::vector<T> Snap::*items, Make make) {
  return [items, make](const Snap& s) {
    std::vector<SeriesSample> out;
    for (const T& item : s.*items) out.push_back(make(item));
    return out;
  };
}

std::vector<std::string> WindowLabels(const WindowLatency& w) {
  return {w.verb, w.regime, std::to_string(w.window_secs) + "s"};
}

std::vector<SeriesSample> WindowQuantileSamples(const Snap& s) {
  std::vector<SeriesSample> out;
  for (const WindowLatency& w : s.window_latency) {
    const std::pair<const char*, uint64_t> quantiles[] = {
        {"p50", w.p50_micros},
        {"p90", w.p90_micros},
        {"p99", w.p99_micros},
        {"max", w.max_micros}};
    for (const auto& [q, value] : quantiles) {
      std::vector<std::string> labels = WindowLabels(w);
      labels.push_back(q);
      out.push_back({"", std::move(labels), value});
    }
  }
  return out;
}

std::vector<SeriesSample> LatencyHistogramSamples(const Snap& s) {
  std::vector<SeriesSample> out;
  for (const HistogramBucket& bucket : s.latency_buckets) {
    out.push_back({"_bucket",
                   {bucket.unbounded ? "+Inf" : std::to_string(bucket.le)},
                   bucket.cumulative_count});
  }
  out.push_back({"_sum", {}, s.latency_sum_micros});
  out.push_back({"_count", {}, s.latency_count});
  return out;
}

/// One sample per slow-log entry; the value is the description followed
/// by the span tree, each tree line indented so a scraper can skip
/// continuation lines.
std::vector<SeriesSample> SlowRequestSamples(const Snap& s) {
  std::vector<SeriesSample> out;
  for (size_t i = 0; i < s.slow_log.size(); ++i) {
    const SlowEntry& slow = s.slow_log[i];
    std::string value = slow.description;
    std::istringstream tree(slow.trace_text);
    for (std::string line; std::getline(tree, line);) value += "\n    " + line;
    out.push_back({"",
                   {std::to_string(i), std::to_string(slow.latency_micros),
                    slow.regime, std::to_string(slow.request_id)},
                   std::move(value)});
  }
  return out;
}

SeriesRow Counter(const char* text_name, const char* prom_name,
                  const char* help, const char* statusz_group,
                  const char* statusz_key,
                  std::function<SeriesValue(const Snap&)> value,
                  const char* prom_labels = nullptr) {
  return {text_name, prom_name, "counter", help, statusz_group, statusz_key,
          std::move(value), prom_labels};
}

SeriesRow Gauge(const char* text_name, const char* prom_name,
                const char* help, const char* statusz_group,
                const char* statusz_key,
                std::function<SeriesValue(const Snap&)> value) {
  return {text_name, prom_name, "gauge", help, statusz_group, statusz_key,
          std::move(value)};
}

SeriesRow Family(
    const char* type, const char* text_name, const char* prom_name,
    const char* help, std::vector<SeriesLabel> labels,
    std::function<std::vector<SeriesSample>(const Snap&)> samples) {
  SeriesRow row{text_name, prom_name, type, help};
  row.labels = std::move(labels);
  row.samples = std::move(samples);
  return row;
}

/// /statusz groups, in rendering order, after the top-level keys and the
/// windows object.
constexpr const char* kStatuszGroups[] = {
    "gauges", "requests", "cache", "plan_cache", "http", "flight", "cegar"};

void AppendValue(const SeriesValue& value, bool json_spelling,
                 std::string* out) {
  if (const uint64_t* u = std::get_if<uint64_t>(&value)) {
    *out += std::to_string(*u);
  } else if (const int64_t* i = std::get_if<int64_t>(&value)) {
    *out += std::to_string(*i);
  } else if (const bool* b = std::get_if<bool>(&value)) {
    *out += json_spelling ? (*b ? "true" : "false") : (*b ? "1" : "0");
  } else if (const Fixed* f = std::get_if<Fixed>(&value)) {
    AppendLine(out, "%.*f", f->decimals, f->value);
  } else if (json_spelling) {
    json::AppendEscaped(std::get<std::string>(value), out);
  } else {
    *out += std::get<std::string>(value);
  }
}

void AppendLabel(const SeriesLabel& label, const std::string& value,
                 bool prom, std::string* out) {
  const char* key =
      prom || label.text_key == nullptr ? label.key : label.text_key;
  const bool quoted = prom || label.text_quoted;
  *out += key;
  if (*key != '\0') *out += '=';
  if (quoted) *out += '"';
  *out += prom ? LabelEscaped(value) : value;
  if (quoted) *out += '"';
}

std::vector<SeriesSample> Samples(const SeriesRow& row, const Snap& s) {
  if (row.value == nullptr) return row.samples(s);
  std::vector<SeriesSample> out(1);
  out[0].value = row.value(s);
  return out;
}

/// METRICS (`prom` false) and /metrics differ only in spelling: the name
/// a row goes by, how a label is written, and the /metrics HELP/TYPE
/// headers, one per family that has samples.
std::string RenderSeriesLines(const Snap& s, bool prom) {
  std::string out;
  const char* family = "";
  for (const SeriesRow& row : SeriesTable()) {
    const char* name = prom ? row.prom_name : row.text_name;
    if (name == nullptr) continue;
    const std::vector<SeriesSample> samples = Samples(row, s);
    if (prom && !samples.empty() && std::strcmp(family, name) != 0) {
      family = name;
      AppendLine(&out, "# HELP %s %s\n# TYPE %s %s\n", name, row.help, name,
                 row.type);
    }
    const char* fixed_labels = prom ? row.prom_labels : nullptr;
    for (const SeriesSample& sample : samples) {
      out += name;
      out += sample.suffix;
      if (fixed_labels != nullptr || !sample.labels.empty()) {
        out += '{';
        if (fixed_labels != nullptr) out += fixed_labels;
        for (size_t i = 0; i < sample.labels.size(); ++i) {
          if (out.back() != '{') out += ',';
          AppendLabel(row.labels[i], sample.labels[i], prom, &out);
        }
        out += '}';
      }
      out += ' ';
      AppendValue(sample.value, false, &out);
      out += '\n';
    }
  }
  return out;
}

/// Appends `"key":value` for one row that names a /statusz key.
void AppendStatuszMember(const SeriesRow& row, const Snap& s,
                         std::string* out) {
  *out += '"';
  *out += row.statusz_key;
  *out += "\":";
  AppendValue(row.value(s), true, out);
}

/// Appends `"key":value` for every row of `group` ("": top level),
/// comma-separated from whatever member precedes it.
void AppendStatuszMembers(const Snap& s, const char* group, std::string* out) {
  for (const SeriesRow& row : SeriesTable()) {
    if (row.statusz_key == nullptr ||
        std::strcmp(row.statusz_group, group) != 0) {
      continue;
    }
    if (out->back() != '{') *out += ',';
    AppendStatuszMember(row, s, out);
  }
}

}  // namespace

const std::vector<SeriesRow>& SeriesTable() {
  static const std::vector<SeriesRow> table = {
      Gauge("library_version", nullptr, nullptr, "", "version",
            &Snap::version),
      Family("gauge", nullptr, "relcont_build_info",
             "Build identity of the containment service (value is always 1).",
             {{"version"}, {"trace"}},
             [](auto& s) -> std::vector<SeriesSample> {
               return {{"", {s.version, s.trace_compiled_in ? "on" : "off"},
                        uint64_t{1}}};
             }),
      Gauge(nullptr, nullptr, nullptr, "", "trace_compiled_in",
            &Snap::trace_compiled_in),
      Gauge("start_time_unix_seconds", "relcont_start_time_seconds",
            "Unix time the service started.", "", "start_time_unix_seconds",
            &Snap::start_time_unix_seconds),
      Gauge("uptime_seconds", "relcont_uptime_seconds",
            "Seconds since service start.", "", "uptime_seconds",
            [](auto& s) { return Fixed{s.uptime_seconds, 3}; }),
      Counter("requests_total", "relcont_requests_total",
              "Containment requests answered (including errors).", "requests",
              "total", &Snap::requests),
      Counter("errors_total", "relcont_errors_total",
              "Requests answered with a non-OK status.", "requests", "errors",
              &Snap::errors),
      Counter("request_cache_hits", "relcont_request_cache_hits_total",
              "Requests served from the decision cache.", "requests",
              "cache_hits", &Snap::request_cache_hits),
      Counter("deadline_exceeded", "relcont_deadline_exceeded_total",
              "Requests whose deadline expired before the decision completed.",
              "requests", "deadline_exceeded", &Snap::deadline_exceeded),
      Counter("parallel_tasks_spawned", "relcont_parallel_tasks_spawned_total",
              "Parallel helper tasks spawned by decisions.", nullptr, nullptr,
              &Snap::parallel_tasks_spawned),
      Counter("parallel_tasks_completed",
              "relcont_parallel_tasks_completed_total",
              "Parallel helper tasks joined by decisions (equals spawned when "
              "idle).",
              nullptr, nullptr, &Snap::parallel_tasks_completed),
      Gauge("inflight_requests", "relcont_inflight_requests",
            "Requests currently being decided.", "gauges", "inflight_requests",
            &Snap::inflight_requests),
      Gauge("open_connections", "relcont_open_connections",
            "TCP connections currently open on the obs server.", "gauges",
            "open_connections", &Snap::open_connections),
      Gauge("batch_queue_depth", "relcont_batch_queue_depth",
            "Batch items queued but not yet claimed by a worker.", "gauges",
            "batch_queue_depth", &Snap::batch_queue_depth),
      Gauge("draining", "relcont_draining",
            "1 between SIGTERM drain start and listener close, else 0.", "",
            "draining", &Snap::draining),
      // One /metrics family, two METRICS series: the second row shares the
      // first row's HELP/TYPE.
      Counter("http_rejected_431_total", "relcont_http_rejected_total",
              "HTTP requests rejected by the parser hardening, by status "
              "code.",
              "http", "rejected_431", &Snap::http_rejected_431, "code=\"431\""),
      Counter("http_rejected_408_total", "relcont_http_rejected_total",
              nullptr, "http", "rejected_408", &Snap::http_rejected_408,
              "code=\"408\""),
      Family("counter", "decisions_by_regime", "relcont_decisions_total",
             "Decisions per paper regime.", {{"regime", "", false}},
             Each(&Snap::decisions_by_regime, [](auto& d) -> SeriesSample {
               return {"", {d.regime}, d.count};
             })),
      Counter("cache_hits", "relcont_cache_hits_total",
              "Decision-cache lookup hits.", "cache", "hits",
              [](auto& s) { return s.cache.hits; }),
      Counter("cache_misses", "relcont_cache_misses_total",
              "Decision-cache lookup misses.", "cache", "misses",
              [](auto& s) { return s.cache.misses; }),
      Counter("cache_evictions", "relcont_cache_evictions_total",
              "LRU evictions from the decision cache.", "cache", "evictions",
              [](auto& s) { return s.cache.evictions; }),
      Gauge("cache_entries", "relcont_cache_entries",
            "Entries currently resident in the decision cache.", "cache",
            "entries", [](auto& s) { return s.cache.entries; }),
      Gauge(nullptr, nullptr, nullptr, "cache", "hit_rate", [](auto& s) {
        return Fixed{HitRate(s.cache.hits, s.cache.misses), 4};
      }),
      Counter("plan_requests_total", "relcont_plan_requests_total",
              "PLAN? requests answered (including errors).", "requests",
              "plan_requests", &Snap::plan_requests),
      Counter("rewrite_requests_total", "relcont_rewrite_requests_total",
              "REWRITE? requests answered (including errors).", "requests",
              "rewrite_requests", &Snap::rewrite_requests),
      Counter("plan_errors_total", "relcont_plan_errors_total",
              "Planner requests answered with a non-OK status.", "requests",
              "plan_errors", &Snap::plan_errors),
      Counter("unknown_verbs_total", "relcont_unknown_verb_total",
              "Protocol lines rejected because no handler claims their verb.",
              "requests", "unknown_verbs", &Snap::unknown_verbs),
      Counter("plan_cache_hits", "relcont_plan_cache_hits_total",
              "Plan-cache lookup hits.", "plan_cache", "hits",
              [](auto& s) { return s.plan_cache.hits; }),
      Counter("plan_cache_misses", "relcont_plan_cache_misses_total",
              "Plan-cache lookup misses.", "plan_cache", "misses",
              [](auto& s) { return s.plan_cache.misses; }),
      Counter("plan_cache_evictions", "relcont_plan_cache_evictions_total",
              "LRU evictions from the plan cache.", "plan_cache", "evictions",
              [](auto& s) { return s.plan_cache.evictions; }),
      Counter("plan_cache_invalidated", "relcont_plan_cache_invalidated_total",
              "Plan-cache entries dropped by catalog re-registration.",
              "plan_cache", "invalidated",
              [](auto& s) { return s.plan_cache.invalidated; }),
      Gauge("plan_cache_entries", "relcont_plan_cache_entries",
            "Entries currently resident in the plan cache.", "plan_cache",
            "entries", [](auto& s) { return s.plan_cache.entries; }),
      Gauge(nullptr, nullptr, nullptr, "plan_cache", "hit_rate", [](auto& s) {
        return Fixed{HitRate(s.plan_cache.hits, s.plan_cache.misses), 4};
      }),
      Counter("dense_order_propagations_total",
              "relcont_dense_order_propagations_total",
              "Pair-matrix cell narrowings performed by the dense-order "
              "engine.",
              nullptr, nullptr, &Snap::dense_order_propagations),
      Counter("dense_order_pruned_branches_total",
              "relcont_dense_order_pruned_branches_total",
              "Linearization DFS class placements rejected by the closed pair "
              "matrix.",
              nullptr, nullptr, &Snap::dense_order_pruned_branches),
      Counter("dense_order_bound_hits_total",
              "relcont_dense_order_bound_hits_total",
              "Linearization streams cut short by a budget or the structural "
              "node cap.",
              nullptr, nullptr, &Snap::dense_order_bound_hits),
      Counter("cegar_iterations_total", "relcont_cegar_iterations_total",
              "Cover checks performed by the CEGAR counterexample search "
              "(loop iterations).",
              "cegar", "iterations", &Snap::cegar_iterations),
      Counter("cegar_blocking_clauses_total",
              "relcont_cegar_blocking_clauses_total",
              "Blocking clauses learned from successful covers.", "cegar",
              "blocking_clauses", &Snap::cegar_blocking_clauses),
      Counter("cegar_proposals_total", "relcont_cegar_proposals_total",
              "Candidate source instances proposed by the CEGAR search (DFS "
              "leaves).",
              "cegar", "proposals", &Snap::cegar_proposals),
      Family("counter", "bound_hits_total", "relcont_bound_hits_total",
             "Bound trips per budget site (the [site] tag of kBoundReached "
             "statuses).",
             {{"site"}}, Each(&Snap::bound_sites, [](auto& b) -> SeriesSample {
               return {"", {b.site}, b.count};
             })),
      Counter("flight_retained_total", "relcont_flight_retained_total",
              "Requests retained in the flight-recorder arena (tail-sampled "
              "or head-sampled).",
              "flight", "retained_total", &Snap::flight_retained),
      Counter("flight_dropped_total", "relcont_flight_dropped_total",
              "Flight-recorder drops: arena evictions plus oversized entries.",
              "flight", "dropped_total", &Snap::flight_dropped),
      Gauge("flight_arena_bytes", "relcont_flight_arena_bytes",
            "Bytes currently resident in the flight-recorder retention arena.",
            "flight", "arena_bytes", &Snap::flight_arena_bytes),
      Family("gauge", "window_latency_requests",
             "relcont_window_latency_requests",
             "Requests recorded in the trailing window per verb and regime.",
             {{"verb"}, {"regime"}, {"window"}},
             Each(&Snap::window_latency, [](auto& w) -> SeriesSample {
               return {"", WindowLabels(w), w.count};
             })),
      Family("gauge", "window_latency_us",
             "relcont_window_latency_microseconds",
             "Windowed latency quantiles per verb and regime (upper-bound "
             "bucket estimates; max is exact).",
             {{"verb"}, {"regime"}, {"window"}, {"quantile", "q"}},
             WindowQuantileSamples),
      Family("histogram", "latency_us", "relcont_request_latency_microseconds",
             "Request latency (cumulative power-of-two buckets).", {{"le"}},
             LatencyHistogramSamples),
      Family("counter", "trace_counter_total", "relcont_trace_counter_total",
             "Trace counter totals per regime (see docs/OBSERVABILITY.md for "
             "the glossary).",
             {{"regime"}, {"counter"}},
             Each(&Snap::trace_counter_totals, [](auto& t) -> SeriesSample {
               return {"", {t.regime, t.counter}, t.total};
             })),
      Family("counter", "trace_phase_ns",
             "relcont_trace_phase_nanoseconds_total",
             "Cumulative time per pipeline phase across recorded traces.",
             {{"phase"}}, Each(&Snap::phases, [](auto& p) -> SeriesSample {
               return {"", {p.name}, p.ns};
             })),
      Family("counter", "trace_phase_calls", "relcont_trace_phase_calls_total",
             "Recorded spans per pipeline phase.", {{"phase"}},
             Each(&Snap::phases, [](auto& p) -> SeriesSample {
               return {"", {p.name}, p.calls};
             })),
      // Free-form request text plus an indented span tree, not a numeric
      // series: METRICS only; /statusz carries the structured digest.
      Family("log", "slow_request", nullptr, nullptr,
             {{"rank", nullptr, false},
              {"latency_us", nullptr, false},
              {"regime"},
              {"id", nullptr, false}},
             SlowRequestSamples),
  };
  return table;
}

std::string RenderMetricsText(const MetricsSnapshot& s) {
  return RenderSeriesLines(s, false);
}

std::string RenderPrometheusText(const MetricsSnapshot& s) {
  return RenderSeriesLines(s, true);
}

std::string RenderStatuszMember(const MetricsSnapshot& s,
                                const char* statusz_key) {
  std::string out;
  for (const SeriesRow& row : SeriesTable()) {
    if (row.statusz_key != nullptr && row.statusz_group[0] == '\0' &&
        std::strcmp(row.statusz_key, statusz_key) == 0) {
      AppendStatuszMember(row, s, &out);
      break;
    }
  }
  return out;
}

std::string RenderStatuszJson(const MetricsSnapshot& s) {
  std::string out = "{";
  AppendStatuszMembers(s, "", &out);
  AppendLine(&out, ",\"windows\":{\"short_secs\":%d,\"long_secs\":%d",
             s.short_window_secs, s.long_window_secs);
  out += ",\"latency\":[";
  for (size_t i = 0; i < s.window_latency.size(); ++i) {
    const WindowLatency& w = s.window_latency[i];
    if (i > 0) out += ',';
    out += "{\"verb\":";
    json::AppendEscaped(w.verb, &out);
    out += ",\"regime\":";
    json::AppendEscaped(w.regime, &out);
    AppendLine(&out,
               ",\"window_secs\":%d,\"count\":%llu,\"p50_us\":%llu,"
               "\"p90_us\":%llu,\"p99_us\":%llu,\"max_us\":%llu}",
               w.window_secs, ULL(w.count), ULL(w.p50_micros),
               ULL(w.p90_micros), ULL(w.p99_micros), ULL(w.max_micros));
  }
  out += "]}";
  for (const char* group : kStatuszGroups) {
    AppendLine(&out, ",\"%s\":{", group);
    AppendStatuszMembers(s, group, &out);
    out += '}';
  }
  out += ",\"bound_sites\":[";
  for (size_t i = 0; i < s.bound_sites.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"site\":";
    json::AppendEscaped(s.bound_sites[i].site, &out);
    AppendLine(&out, ",\"count\":%llu}", ULL(s.bound_sites[i].count));
  }
  out += "],\"slow_requests\":[";
  for (size_t i = 0; i < s.slow_log.size(); ++i) {
    const SlowEntry& slow = s.slow_log[i];
    if (i > 0) out += ',';
    AppendLine(&out, "{\"latency_us\":%llu,\"regime\":",
               ULL(slow.latency_micros));
    json::AppendEscaped(slow.regime, &out);
    AppendLine(&out, ",\"request_id\":%llu", ULL(slow.request_id));
    out += ",\"description\":";
    json::AppendEscaped(slow.description, &out);
    out += ",\"phases\":[";
    for (size_t j = 0; j < slow.top_phases.size(); ++j) {
      const PhaseSnapshot& phase = slow.top_phases[j];
      if (j > 0) out += ',';
      out += "{\"name\":";
      json::AppendEscaped(phase.name, &out);
      AppendLine(&out, ",\"ns\":%llu,\"calls\":%llu}", ULL(phase.ns),
                 ULL(phase.calls));
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

namespace {

/// Renders one wide event through the shared AS-safe renderer, so the
/// /requestz surface and the crash dump emit byte-identical objects.
void AppendWideEvent(const WideEvent& event, std::string* out) {
  char buf[2048];
  out->append(buf, RenderWideEventJson(event, buf, sizeof buf));
}

}  // namespace

std::string RenderRequestzListJson(const FlightRecorder& recorder) {
  std::string out;
  AppendLine(&out,
             "{\"flight\":{\"ring_capacity\":%llu,\"recorded_total\":%llu,"
             "\"retained_total\":%llu,\"dropped_total\":%llu,"
             "\"arena_bytes\":%llu,\"arena_max_bytes\":%llu",
             ULL(recorder.ring_capacity()), ULL(recorder.recorded_total()),
             ULL(recorder.retained_total()), ULL(recorder.dropped_total()),
             ULL(recorder.arena_bytes()), ULL(recorder.arena_max_bytes()));
  out += ",\"retained_ids\":[";
  const std::vector<uint64_t> ids = recorder.RetainedIds();
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ',';
    AppendLine(&out, "%llu", ULL(ids[i]));
  }
  out += "]},\"events\":[";
  const std::vector<WideEvent> events = recorder.RecentEvents();
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ',';
    AppendWideEvent(events[i], &out);
  }
  out += "]}\n";
  return out;
}

std::string RenderRequestzEventJson(const FlightRecorder::Retained& entry) {
  std::string out = "{\"event\":";
  AppendWideEvent(entry.event, &out);
  out += ",\"trace_text\":";
  json::AppendEscaped(entry.trace_text, &out);
  out += ",\"chrome_trace\":";
  if (entry.chrome_json.empty()) {
    out += "null";
  } else {
    // The exporter's JSON document, embedded raw (trailing newline
    // stripped so the embedding stays a single line).
    std::string_view chrome = entry.chrome_json;
    while (!chrome.empty() &&
           (chrome.back() == '\n' || chrome.back() == ' ')) {
      chrome.remove_suffix(1);
    }
    out.append(chrome);
  }
  out += "}\n";
  return out;
}

}  // namespace obs
}  // namespace relcont
