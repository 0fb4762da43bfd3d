#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

// The traced run: the same seeded requests replayed in-process through the
// library's public functions, one recorded span per call. Nothing inside
// the library is instrumented — each layer is timed by calling its public
// entry point on the request's inputs (NOTES.md, "Reading the spans").

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    // index of the parent span, -1 for a root
  uint32_t request = 0;   // 1-based request number, 0 for set-up spans
};

/// Records spans in memory; Write() dumps them as JSON lines at the end.
class SpanRecorder {
 public:
  int Begin(const char* name, int parent, uint32_t request);
  void End(int index);
  const std::vector<Span>& spans() const { return spans_; }
  bool Write(const std::string& path) const;
  /// Mean cost of one Begin/End pair, in nanoseconds, measured on a
  /// scratch recorder.
  static double MeasureOverheadNs();

 private:
  std::vector<Span> spans_;
};

struct ReplayResult {
  /// Per-layer values keyed by metric name (times in microseconds).
  std::map<std::string, double> metrics;
  uint64_t requests = 0;
  uint64_t failed = 0;
};

/// Replays the first `sent[c]` requests of every connection (round-robin
/// across connections) for at most `seconds`, writes the spans to
/// `spans_path` (skipped when empty), and derives the per-layer times.
ReplayResult Replay(const Workload& w, const std::vector<size_t>& sent,
                    double seconds, const std::string& spans_path);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
