#ifndef RELCONT_SERVICE_CONFIG_H_
#define RELCONT_SERVICE_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace relcont {

/// The deadline, in milliseconds, of a request that sets no timeout_ms of
/// its own. Finite, so no client request runs without bound.
inline constexpr int64_t kDefaultTimeoutMs = 30000;

/// Shard count of both caches (key hash picks the shard).
inline constexpr size_t kCacheShards = 8;

/// Plan-cache capacity in entries.
inline constexpr size_t kPlanCacheCapacity = 4096;

/// The one configuration of the request path: ContainmentService and the
/// Planner it fronts read the same struct.
struct ServiceConfig {
  /// Total decision-cache capacity in entries.
  size_t cache_capacity = 4096;
  /// A worker arena is discarded and rebuilt once its interner holds more
  /// than this many symbols. The symbols an uncached decision or plan mints
  /// are rolled back when it ends, so this caps only what an arena keeps:
  /// materialized catalogs and the names of parsed queries.
  int64_t max_worker_symbols = 1 << 20;
  /// When true every request is traced (as if collect_trace were set) and
  /// folded into the metrics aggregates. Off by default: tracing allocates
  /// and is not free, unlike the dormant instrumentation hooks.
  bool trace_requests = false;
  /// How many worst-latency traces METRICS retains (0 disables the log).
  size_t slow_log_capacity = 4;
  /// Deadline applied to requests that do not set their own timeout_ms
  /// (0 = no default deadline). A request past its deadline answers
  /// kBoundReached — a bound, not an error.
  int64_t default_timeout_ms = kDefaultTimeoutMs;
  /// Worker-thread count for the parallel per-disjunct scan, applied to
  /// requests that do not set their own parallel_workers. 1 = serial.
  int default_parallel_workers = 1;
  /// Long trailing window for the sliding-window latency percentiles, in
  /// seconds (the short window is fixed at 10 s). Clamped to the window
  /// ring size (obs::WindowRing::kMaxWindowSecs).
  int window_secs = 60;
  /// Flight-recorder sizing (src/obs/flight.h): wide-event ring slots
  /// (rounded up to a power of two), retention-arena byte cap, and the
  /// head-sampling period (every Nth request retained even when healthy;
  /// 0 disables head sampling).
  size_t flight_ring_capacity = 1024;
  size_t flight_arena_kb = 512;
  uint64_t flight_head_sample = 64;
};

}  // namespace relcont

#endif  // RELCONT_SERVICE_CONFIG_H_
