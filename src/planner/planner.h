#ifndef RELCONT_PLANNER_PLANNER_H_
#define RELCONT_PLANNER_PLANNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "planner/plan_cache.h"
#include "relcont/decide.h"
#include "service/catalog.h"
#include "service/metrics.h"
#include "trace/trace.h"

namespace relcont {

/// relcont::planner — the plan service behind the PLAN? and REWRITE?
/// protocol verbs. Where ContainmentService answers `Q1 ⊑_V Q2 ?`, the
/// Planner *produces* the maximally-contained plan of one query against a
/// catalog (Section 2.3 inverse rules, or the Section 4 executable dom
/// plan when the catalog carries binding patterns) and decides plan-level
/// containment `P1^exp ⊑ Q2` (Theorems 4.1/5.2).
///
/// Concurrency model: identical to ContainmentService. Plans are pure
/// functions of (query, catalog, options), but plan construction mints
/// fresh symbols through a non-thread-safe Interner, so every
/// Interner-carrying structure is confined to a PlannerContext owned by
/// one thread at a time; the shared state is the catalog registry (mutex),
/// the plan cache (sharded mutexes, values are interner-independent text),
/// and the metrics (atomics).

struct PlannerConfig {
  /// Total plan-cache capacity in entries.
  size_t cache_capacity = 4096;
  size_t cache_shards = 8;
  /// A planner arena is discarded and rebuilt once its interner holds more
  /// than this many symbols. The Skolem functions and fresh predicates an
  /// uncached plan mints are rolled back when it ends, so this caps only
  /// materialized catalogs and parsed query names.
  int64_t max_worker_symbols = 1 << 20;
  /// When true every plan request is traced and folded into the metrics
  /// aggregates (as if collect_trace were set).
  bool trace_requests = false;
  /// Deadline applied to requests that do not set their own timeout_ms
  /// (0 = no default deadline). A request past its deadline answers
  /// kBoundReached — a bound, never a wrong plan.
  int64_t default_timeout_ms = 0;
  /// Default fan-out width for REWRITE?'s per-disjunct containment scan.
  int default_parallel_workers = 1;
};

/// One plan-construction question: the maximally-contained plan of
/// `query_text` (ParseProgram syntax, goal = head of the first rule)
/// against the named catalog.
struct PlanRequest {
  std::string query_text;
  std::string catalog;
  DecideOptions options;
  bool bypass_cache = false;
  bool collect_trace = false;
};

struct PlanResponse {
  /// Non-OK on parse errors, unknown catalogs, unsupported fragments, or
  /// an exhausted budget (kBoundReached); the plan fields are meaningful
  /// only when ok.
  Status status;
  /// The plan rules, one per line, re-parseable by ParseProgram.
  std::string plan_text;
  /// Name of the unary dom accumulator ("" for nonrecursive UCQ plans).
  std::string dom_predicate;
  int num_rules = 0;
  /// True when the plan recurses through the dom accumulator (the catalog
  /// has binding patterns); false for the function-free UCQ plan.
  bool recursive = false;
  bool cache_hit = false;
  uint64_t latency_micros = 0;
  /// The flight-recorder request id minted for this request (echoed on
  /// the protocol line and the /requestz?id=N pivot).
  uint64_t request_id = 0;
  int64_t catalog_version = 0;
  /// Present iff tracing was requested for this request.
  std::shared_ptr<const trace::TraceContext> trace;
};

/// One plan-level containment question: `P1^exp ⊑ Q2` where P1 is
/// q1_text's maximally-contained plan against the catalog.
struct RewriteRequest {
  std::string q1_text;
  std::string q2_text;
  std::string catalog;
  DecideOptions options;
  bool bypass_cache = false;
  bool collect_trace = false;
};

struct RewriteResponse {
  Status status;
  bool contained = false;
  /// Rendered counterexample expansion ("" when contained).
  std::string witness_text;
  bool cache_hit = false;
  uint64_t latency_micros = 0;
  /// The flight-recorder request id minted for this request.
  uint64_t request_id = 0;
  int64_t catalog_version = 0;
  std::shared_ptr<const trace::TraceContext> trace;
};

/// Per-thread working memory for the planner: the interner arena plus the
/// catalogs materialized against it. NOT thread-safe — one context per
/// thread, exactly like WorkerContext (service/service.h); it is a
/// separate type only because the two subsystems retire their arenas
/// independently.
class PlannerContext {
 public:
  PlannerContext();

  Interner* interner() { return interner_.get(); }

 private:
  friend class Planner;

  /// Drops the arena and every structure built against it.
  void Reset();

  std::unique_ptr<Interner> interner_;
  std::map<std::string, MaterializedCatalog> catalogs_;
};

/// The plan service facade. Shares the catalog registry and metrics with
/// the ContainmentService that fronts it; owns the plan cache.
class Planner {
 public:
  /// `catalogs` and `metrics` must outlive the planner (the owning
  /// ContainmentService guarantees this).
  Planner(CatalogRegistry* catalogs, ServiceMetrics* metrics,
          PlannerConfig config = {});

  /// Builds the maximally-contained plan for `request` using the
  /// caller-owned context. Safe to call from many threads as long as each
  /// uses its own context.
  PlanResponse Plan(const PlanRequest& request, PlannerContext* ctx);

  /// Decides plan-level containment P1^exp ⊑ Q2.
  RewriteResponse Rewrite(const RewriteRequest& request, PlannerContext* ctx);

  PlanCache& cache() { return cache_; }
  const PlannerConfig& config() const { return config_; }

 private:
  /// Materializes `name` into `ctx` (cached by version).
  Result<const MaterializedCatalog*> CatalogFor(const std::string& name,
                                                PlannerContext* ctx);

  CatalogRegistry* catalogs_;
  ServiceMetrics* metrics_;
  PlannerConfig config_;
  PlanCache cache_;
};

}  // namespace relcont

#endif  // RELCONT_PLANNER_PLANNER_H_
