#ifndef RELCONT_PLANNER_PLANNER_H_
#define RELCONT_PLANNER_PLANNER_H_

#include <string>

#include "common/sharded_lru.h"
#include "relcont/decide.h"
#include "service/catalog.h"
#include "service/config.h"
#include "service/metrics.h"
#include "service/request_envelope.h"
#include "trace/trace.h"

namespace relcont {

/// relcont::planner — the plan service behind the PLAN? and REWRITE?
/// protocol verbs. Where ContainmentService answers `Q1 ⊑_V Q2 ?`, the
/// Planner *produces* the maximally-contained plan of one query against a
/// catalog (Section 2.3 inverse rules, or the Section 4 executable dom
/// plan when the catalog carries binding patterns) and decides plan-level
/// containment `P1^exp ⊑ Q2` (Theorems 4.1/5.2).
///
/// Concurrency model: ContainmentService's (service/service.h), on the
/// same WorkerContext arenas and the same ShardedLru cache type.

/// A planner result in interner-independent form, so one cache can serve
/// every worker arena: the plan travels as rendered text (re-parseable by
/// ParseProgram) rather than as a Program full of thread-local SymbolIds.
/// PLAN? entries fill the plan fields; REWRITE? entries fill the verdict
/// fields. Both share the struct so the cache needs a single value type.
struct CachedPlan {
  /// PLAN?: the plan rules, one per line (ParseProgram syntax, Skolem
  /// function terms included for recursive dom plans).
  std::string plan_text;
  /// Name of the unary dom accumulator ("" for nonrecursive UCQ plans).
  std::string dom_predicate;
  /// Rule count of the plan (0 for REWRITE? entries).
  int num_rules = 0;
  /// True when the plan recurses through the dom accumulator.
  bool recursive = false;
  /// REWRITE?: the plan-level containment verdict P1^exp ⊑ Q2.
  bool contained = false;
  /// Rendered counterexample ("" when none).
  std::string witness_text;
};

/// Planner results keyed by CatalogCacheKey over the verb tag (P or R),
/// the canonical query fingerprint(s), and the plan-options fingerprint.
using PlanCache = ShardedLru<CachedPlan>;

/// The planner's arena is the request path's one arena type.
using PlannerContext = WorkerContext;

/// Every option that can change a plan, comma-joined — the planner's cache
/// key part, which the decision cache's key extends with the containment
/// check's own options. The budget fields are deliberately absent: a bound
/// turns the answer into a non-OK status, and non-OK results are never
/// cached.
std::string PlanOptionsFingerprint(const DecideOptions& options);

/// One plan-construction question: the maximally-contained plan of
/// `query_text` (ParseProgram syntax, goal = head of the first rule)
/// against the named catalog.
struct PlanRequest : ServedRequest {
  std::string query_text;
};

struct PlanResponse : ServedResponse {
  /// The plan rules, one per line, re-parseable by ParseProgram.
  std::string plan_text;
  /// Name of the unary dom accumulator ("" for nonrecursive UCQ plans).
  std::string dom_predicate;
  int num_rules = 0;
  /// True when the plan recurses through the dom accumulator (the catalog
  /// has binding patterns); false for the function-free UCQ plan.
  bool recursive = false;
};

/// One plan-level containment question: `P1^exp ⊑ Q2` where P1 is
/// q1_text's maximally-contained plan against the catalog.
struct RewriteRequest : ServedRequest {
  std::string q1_text;
  std::string q2_text;
};

struct RewriteResponse : ServedResponse {
  bool contained = false;
  /// Rendered counterexample expansion ("" when contained).
  std::string witness_text;
};

/// The plan service facade. Shares the catalog registry and metrics with
/// the ContainmentService that fronts it; owns the plan cache.
class Planner {
 public:
  /// `catalogs` and `metrics` must outlive the planner (the owning
  /// ContainmentService guarantees this).
  Planner(CatalogRegistry* catalogs, ServiceMetrics* metrics,
          ServiceConfig config = {});

  /// Builds the maximally-contained plan for `request` using the
  /// caller-owned context. Safe to call from many threads as long as each
  /// uses its own context.
  PlanResponse Plan(const PlanRequest& request, WorkerContext* ctx);

  /// Decides plan-level containment P1^exp ⊑ Q2.
  RewriteResponse Rewrite(const RewriteRequest& request, WorkerContext* ctx);

  PlanCache& cache() { return cache_; }

 private:
  CatalogRegistry* catalogs_;
  ServiceMetrics* metrics_;
  ServiceConfig config_;
  PlanCache cache_;
};

}  // namespace relcont

#endif  // RELCONT_PLANNER_PLANNER_H_
