#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The four closed-loop workloads (NOTES.md explains why each exists). A
// workload is a pure function of (name, seed): the catalogs, the queries
// each connection DEFINEs during set-up, and every connection's timed
// request stream — byte-identical for a given seed. The expected answers
// are computed here, in-process, before any server starts.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class Verb : uint8_t {
  kContained,  // CONTAINED? <a> <b> @<catalog> [options]
  kPlan,       // DEFINE q <query> + PLAN? q @<catalog>, one write
  kRegister,   // CATALOG <name> ... (re-registration inside the stream)
};

struct CatalogDef {
  std::string name;
  std::string views_text;  // one view rule per line
  std::vector<std::pair<std::string, std::string>> patterns;
  /// The CATALOG protocol line (newline-terminated).
  std::string Line() const;
};

struct QueryDef {
  std::string name;  // session-local DEFINE name
  std::string text;  // one rule, ParseProgram syntax
};

/// One timed exchange. `a`/`b` index the connection's query pool.
struct Request {
  Verb verb = Verb::kContained;
  uint8_t catalog = 0;      // index into Workload::catalogs
  bool expect_yes = false;  // kContained: the oracle's verdict
  bool comparison = false;  // kContained: a Section 5 (comparison) pair
  int32_t a = 0;
  int32_t b = 0;
};

/// What a PLAN? reply must carry for one pool query (kPlan requests).
struct ExpectedPlan {
  int rules = 0;
  /// The library's rendering, dom accumulator renamed to `dom`.
  std::string plan_text;
  std::string fingerprint;  // CanonicalProgramFingerprint of plan_text
};

struct ConnectionPlan {
  std::vector<QueryDef> pool;
  /// DEFINEd on this connection during set-up (kPlan workloads define
  /// inline instead).
  bool define_pool = true;
  /// Sent once during set-up, after the DEFINEs, with answers checked
  /// (the warm-up of warm_hits). Not timed.
  std::vector<Request> warmup;
  /// The timed sequence. A run sends all of it, unless the run's seconds
  /// run out first (only on a server far slower than the stream is sized
  /// for).
  std::vector<Request> stream;
  /// kPlan workloads: the expected plan of each pool query.
  std::vector<ExpectedPlan> plans;
};

struct Workload {
  std::string name;
  std::vector<CatalogDef> catalogs;
  std::vector<ConnectionPlan> connections;
  /// Trailing CONTAINED? options (e.g. " timeout_ms=60000").
  std::string contained_options;

  /// The bytes a request writes, and how many reply lines it reads back.
  std::string Wire(const ConnectionPlan& conn, const Request& r) const;
  int ReplyLines(const ConnectionPlan& conn, const Request& r) const;
};

/// Builds the workload and its oracle answers. `threads` bounds the
/// parallelism of the oracle computation. Returns false (with a message
/// in *error) for an unknown name or an oracle failure.
bool MakeWorkload(const std::string& name, uint64_t seed, int threads,
                  Workload* out, std::string* error);

/// Plan fingerprint used to compare a served plan against the oracle:
/// parses `plan_text` and returns CanonicalProgramFingerprint for the goal
/// `goal` ("" when the text does not parse).
std::string PlanFingerprint(const std::string& plan_text,
                            const std::string& goal);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
