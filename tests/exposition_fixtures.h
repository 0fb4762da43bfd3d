// Synthetic MetricsSnapshots shared by the exposition tests. The golden
// files under tests/testdata/exposition/ are renderings of exactly these
// snapshots (plus a default-constructed one), so editing a fixture means
// regenerating its golden files.

#ifndef RELCONT_TESTS_EXPOSITION_FIXTURES_H_
#define RELCONT_TESTS_EXPOSITION_FIXTURES_H_

#include <cstdint>

#include "obs/exposition.h"
#include "service/metrics.h"

namespace relcont {
namespace testing_fixtures {

/// A snapshot in which every optional section renders: nonzero counters,
/// one row per labelled family, trace aggregates, a slow-log entry, window
/// rows, bound sites, draining on. If a renderer gates a family on
/// emptiness, this snapshot un-gates it.
inline obs::MetricsSnapshot FullyPopulatedSnapshot() {
  obs::MetricsSnapshot s;
  s.version = "0.0.0-lint";
  s.trace_compiled_in = true;
  s.start_time_unix_seconds = 1700000000;
  s.uptime_seconds = 12.5;
  s.requests = 10;
  s.errors = 1;
  s.request_cache_hits = 2;
  s.deadline_exceeded = 1;
  s.parallel_tasks_spawned = 4;
  s.parallel_tasks_completed = 4;
  s.plan_requests = 3;
  s.rewrite_requests = 2;
  s.plan_errors = 1;
  s.unknown_verbs = 1;
  s.dense_order_propagations = 5;
  s.dense_order_pruned_branches = 6;
  s.dense_order_bound_hits = 7;
  s.cegar_iterations = 8;
  s.cegar_blocking_clauses = 9;
  s.cegar_proposals = 10;
  s.decisions_by_regime.push_back({"section3", 5});
  s.cache.hits = 2;
  s.cache.misses = 8;
  s.cache.evictions = 1;
  s.cache.entries = 7;
  s.plan_cache.hits = 1;
  s.plan_cache.misses = 4;
  s.plan_cache.evictions = 1;
  s.plan_cache.invalidated = 2;
  s.plan_cache.entries = 2;
  s.latency_buckets.push_back({false, 128, 6});
  s.latency_buckets.push_back({true, 0, 10});
  s.latency_sum_micros = 1234;
  s.latency_count = 10;
  s.trace_counter_totals.push_back({"section3", "hom_candidates_tried", 42});
  s.phases.push_back({"decide", 900000, 10});
  obs::SlowEntry slow;
  slow.latency_micros = 900;
  slow.regime = "section3";
  slow.request_id = 7;
  slow.description = "CONTAINED? q1 q2 @c";
  slow.trace_text = "decide 900us\n  regime_section3 880us";
  slow.top_phases.push_back({"decide", 900000, 1});
  s.slow_log.push_back(slow);
  s.short_window_secs = 10;
  s.long_window_secs = 60;
  s.window_latency.push_back({"contained", "all", 10, 5, 10, 20, 30, 40});
  s.window_latency.push_back({"plan", "section3", 60, 2, 11, 21, 31, 41});
  s.inflight_requests = 1;
  s.open_connections = 2;
  s.batch_queue_depth = 3;
  s.draining = true;
  s.http_rejected_431 = 1;
  s.http_rejected_408 = 1;
  s.bound_sites.push_back({"linearization_dfs", 3});
  s.flight_retained = 4;
  s.flight_dropped = 1;
  s.flight_arena_bytes = 2048;
  return s;
}

/// A partially populated snapshot with a full latency histogram, two
/// regimes and a phase name that needs Prometheus label escaping.
inline obs::MetricsSnapshot FixtureSnapshot() {
  obs::MetricsSnapshot s;
  s.version = "1.2.3";
  s.trace_compiled_in = true;
  s.start_time_unix_seconds = 1700000000;
  s.uptime_seconds = 12.5;
  s.requests = 42;
  s.errors = 2;
  s.request_cache_hits = 7;
  s.decisions_by_regime.push_back({"section3", 40});
  s.decisions_by_regime.push_back({"theorem5.1", 2});
  s.cache.hits = 7;
  s.cache.misses = 35;
  s.cache.evictions = 1;
  s.cache.entries = 34;
  s.dense_order_propagations = 901;
  s.dense_order_pruned_branches = 77;
  s.dense_order_bound_hits = 3;
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    obs::HistogramBucket bucket;
    bucket.unbounded = i == LatencyHistogram::kBuckets - 1;
    bucket.le = bucket.unbounded ? 0 : (uint64_t{1} << i) - 1;
    bucket.cumulative_count = 42;
    s.latency_buckets.push_back(bucket);
  }
  s.latency_sum_micros = 1234;
  s.latency_count = 42;
  s.phases.push_back({"decide \"hostile\"\\phase", 5000, 3});
  return s;
}

}  // namespace testing_fixtures
}  // namespace relcont

#endif  // RELCONT_TESTS_EXPOSITION_FIXTURES_H_
