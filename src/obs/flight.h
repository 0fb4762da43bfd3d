#ifndef RELCONT_OBS_FLIGHT_H_
#define RELCONT_OBS_FLIGHT_H_

/// Request-scoped flight recorder: the per-request forensic layer under
/// REQUESTZ / GET /requestz (docs/OBSERVABILITY.md, "Flight recorder").
///
/// Three pieces, each with a distinct durability/cost contract:
///
///   * a monotonic REQUEST ID counter, minted once per service request and
///     threaded end to end (response lines, traces, access log, slow
///     digest, error lines);
///   * a lock-free RING of fixed-size WIDE EVENTS — one per request, every
///     field an operator needs to triage a tail sample (verb, regime,
///     catalog+version, cache hit, bound site, latency, worker count,
///     phase digest). Writers pay a ticket fetch_add, a seqlock claim, and
///     ~33 relaxed word stores; readers validate the seqlock so a torn
///     event is skipped, never surfaced;
///   * a bounded RETENTION ARENA holding the full span tree (text + Chrome
///     trace JSON) for the requests worth keeping: errored, kBoundReached,
///     slower than the live trailing-window p99, or the cheap head sample.
///     FIFO-evicted under a byte cap so a burst of slow requests cannot
///     grow memory without bound.
///
/// The ring doubles as a crash BLACK BOX: DumpTo(fd) walks it with only
/// async-signal-safe operations, so the SIGSEGV/SIGABRT handler installed
/// by InstallCrashHandler can write the last N wide events plus a
/// pre-rendered /statusz snapshot to --crash-dump before the process dies.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace relcont {
namespace obs {

/// The length of the longest prefix of `s` that fits in `max_bytes` and
/// does not end inside a UTF-8 code point: a cut that would land on a
/// continuation byte backs off to the start of that code point, so a
/// truncated string stays valid UTF-8. Allocation-free and
/// async-signal-safe.
inline size_t Utf8PrefixLength(std::string_view s, size_t max_bytes) {
  if (s.size() <= max_bytes) return s.size();
  size_t n = max_bytes;
  // At most three continuation bytes follow a lead byte.
  for (int back = 0; back < 3 && n > 0 &&
                     (static_cast<unsigned char>(s[n]) & 0xC0) == 0x80;
       ++back) {
    --n;
  }
  return n;
}

/// One request's worth of telemetry, fixed-size and trivially copyable so
/// it can live in the atomic-word ring and be rendered from a signal
/// handler. String fields are truncating copies, cut on a code point
/// boundary — long catalog names keep their prefix, which is enough to
/// pivot into CATALOG?.
struct WideEvent {
  static constexpr int kMaxPhases = 4;
  static constexpr size_t kVerbChars = 12;
  static constexpr size_t kRegimeChars = 16;
  static constexpr size_t kCatalogChars = 32;
  static constexpr size_t kSiteChars = 32;
  static constexpr size_t kPhaseChars = 24;

  uint64_t request_id = 0;
  uint64_t ts_unix_micros = 0;
  uint64_t latency_micros = 0;
  int64_t catalog_version = 0;
  uint32_t worker_count = 0;
  uint8_t error = 0;      ///< non-OK status
  uint8_t cache_hit = 0;
  uint8_t traced = 0;     ///< a span tree was collected for this request
  uint8_t bound = 0;      ///< status was kBoundReached
  char verb[kVerbChars] = {};        ///< "contained" | "plan" | "rewrite"
  char regime[kRegimeChars] = {};
  char catalog[kCatalogChars] = {};
  char bound_site[kSiteChars] = {};  ///< the [site] tag of a bound status

  /// Top-of-tree phase digest (root span and its direct children,
  /// aggregated by name, largest first) when the request was traced.
  struct Phase {
    char name[kPhaseChars] = {};
    uint64_t ns = 0;
  };
  Phase phases[kMaxPhases] = {};

  static void CopyInto(char* dst, size_t cap, std::string_view src) {
    size_t n = Utf8PrefixLength(src, cap - 1);
    // An empty view may carry a null data(); memcpy from null is UB even
    // for zero bytes.
    if (n > 0) std::memcpy(dst, src.data(), n);
    dst[n] = '\0';
  }
  void set_verb(std::string_view v) { CopyInto(verb, kVerbChars, v); }
  void set_regime(std::string_view v) { CopyInto(regime, kRegimeChars, v); }
  void set_catalog(std::string_view v) {
    CopyInto(catalog, kCatalogChars, v);
  }
  void set_bound_site(std::string_view v) {
    CopyInto(bound_site, kSiteChars, v);
  }
};
static_assert(sizeof(WideEvent) % 8 == 0, "ring slots are 64-bit words");

/// Renders `event` as one JSON object into `buf` (capacity `cap`,
/// NUL-terminated, truncating) and returns the rendered length. Uses no
/// allocation, locale, or errno — async-signal-safe — and is the ONE wide
/// event renderer: /requestz and the crash dump both call it, so the two
/// surfaces cannot drift (tools/metrics_lint pins the keys against the
/// OBSERVABILITY.md schema table).
size_t RenderWideEventJson(const WideEvent& event, char* buf, size_t cap);

class FlightRecorder {
 public:
  struct Options {
    size_t ring_capacity = 1024;     ///< rounded up to a power of two
    size_t arena_max_bytes = 512 * 1024;
    uint64_t head_sample_every = 64; ///< 0 disables head sampling
  };

  /// A retained request: the wide event plus its full span renderings
  /// (empty strings when the request was not traced).
  struct Retained {
    WideEvent event;
    std::string trace_text;
    std::string chrome_json;
  };

  FlightRecorder() : FlightRecorder(Options{}) {}
  explicit FlightRecorder(const Options& options);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Reallocates the ring and rebinds the caps. Call before any traffic
  /// (the service constructor does); not safe concurrently with Record.
  void Configure(const Options& options);

  /// Mints the next request id (monotonic from 1, process-wide per
  /// recorder — one recorder per service, shared by all verbs).
  uint64_t NextRequestId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one wide event into the ring. Lock-free; a writer that loses
  /// the (one-full-lap) slot race drops its write, never tears another's.
  void Record(const WideEvent& event);

  /// Retains the full span renderings for one request in the FIFO arena.
  /// Evicts oldest entries past the byte cap (each eviction counts as a
  /// drop); an entry larger than the whole arena is dropped outright.
  void Retain(const WideEvent& event, std::string trace_text,
              std::string chrome_json);

  /// True for the cheap head sample (every Nth id) that keeps some healthy
  /// requests in the arena for baseline comparison.
  bool ShouldHeadSample(uint64_t request_id) const {
    return head_sample_every_ != 0 &&
           request_id % head_sample_every_ == 1 % head_sample_every_;
  }

  /// The most recent ring events, newest first, torn/empty slots skipped.
  std::vector<WideEvent> RecentEvents(size_t max_events = 128) const;

  /// The retained entry for `request_id`, if still resident.
  std::optional<Retained> FindRetained(uint64_t request_id) const;
  /// Ids currently resident in the arena, newest first.
  std::vector<uint64_t> RetainedIds() const;

  uint64_t recorded_total() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t retained_total() const {
    return retained_.load(std::memory_order_relaxed);
  }
  uint64_t dropped_total() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  uint64_t arena_bytes() const {
    return arena_bytes_gauge_.load(std::memory_order_relaxed);
  }
  size_t ring_capacity() const { return capacity_; }
  size_t arena_max_bytes() const { return arena_max_bytes_; }
  uint64_t head_sample_every() const { return head_sample_every_; }

  /// Stores a pre-rendered /statusz JSON document for the crash dump. The
  /// signal handler cannot render one (RenderStatuszJson allocates), so
  /// the obs server refreshes this copy about once a second.
  void StoreStatuszSnapshot(std::string_view json);

  /// Writes the crash black box to `fd`: a header line, the stored statusz
  /// snapshot, one "EVENT {...}" line per ring event (newest first), and
  /// an "END" line. Async-signal-safe: write(2), atomic loads, and stack
  /// buffers only.
  void DumpTo(int fd, int signal) const;

 private:
  static constexpr size_t kPayloadWords = (sizeof(WideEvent) + 7) / 8;
  static constexpr size_t kSlotWords = kPayloadWords + 1;  // +1: seqlock
  static constexpr size_t kStatuszCap = 65536;

  /// Seqlock-validated slot read; false on empty, mid-write, or torn.
  bool ReadSlot(size_t slot_index, WideEvent* out) const;

  size_t capacity_ = 0;  // power of two
  size_t mask_ = 0;
  size_t arena_max_bytes_ = 0;
  uint64_t head_sample_every_ = 0;

  std::unique_ptr<std::atomic<uint64_t>[]> ring_;
  std::atomic<uint64_t> head_{0};      // next ticket
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> retained_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> arena_bytes_gauge_{0};

  mutable std::mutex arena_mu_;
  std::deque<Retained> arena_;   // guarded by arena_mu_
  size_t arena_used_bytes_ = 0;  // guarded by arena_mu_

  std::mutex statusz_mu_;  // serializes writers; the AS reader takes none
  std::atomic<uint64_t> statusz_seq_{0};
  std::atomic<size_t> statusz_len_{0};
  char statusz_buf_[kStatuszCap];
};

/// Installs the SIGSEGV/SIGABRT crash handler: on either signal the
/// handler writes `recorder`'s black box (DumpTo) to `dump_path` (opened
/// now, truncating; stderr when null/empty or unopenable), then re-raises
/// with the default disposition so the process still dies by the original
/// signal. SA_RESETHAND keeps a crash inside the handler from looping.
void InstallCrashHandler(FlightRecorder* recorder, const char* dump_path);

}  // namespace obs
}  // namespace relcont

#endif  // RELCONT_OBS_FLIGHT_H_
