#include "planner/planner.h"

#include <chrono>
#include <optional>
#include <utility>

#include "binding/dom_plan.h"
#include "common/budget.h"
#include "containment/canonical.h"
#include "datalog/parser.h"
#include "relcont/binding_containment.h"
#include "relcont/relative_containment.h"
#include "rewriting/inverse_rules.h"

namespace relcont {

namespace {

Result<GoalQuery> ParseGoalQuery(const std::string& text,
                                 Interner* interner) {
  RELCONT_ASSIGN_OR_RETURN(Program program, ParseProgram(text, interner));
  if (program.rules.empty()) {
    return Status::InvalidArgument("query text contains no rules");
  }
  SymbolId goal = program.rules[0].head.predicate;
  return GoalQuery{std::move(program), goal};
}

/// Every option that can change a plan must appear in the key; the budget
/// fields are deliberately absent for the same reason as the decision
/// cache's key (service.cc): a bound turns the answer into a non-OK
/// status, and non-OK results are never cached.
std::string PlanOptionsFingerprint(const DecideOptions& o) {
  std::string out = std::to_string(o.unfold.max_disjuncts);
  out += ',';
  out += std::to_string(o.dom.max_tree_options);
  out += ',';
  out += std::to_string(o.dom.max_rounds);
  out += ',';
  out += std::to_string(o.dom.max_core_checks);
  out += ',';
  out += std::to_string(o.dom.max_disjunct_size);
  out += ',';
  out += std::to_string(o.dom.unfold.max_disjuncts);
  return out;
}

/// One newline-free line identifying a planner request in the slow log.
std::string DescribePlanRequest(const std::string& verb,
                                const std::string& query,
                                const std::string& catalog) {
  std::string out = verb + " " + query + " @" + catalog;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  constexpr size_t kMaxLength = 160;
  if (out.size() > kMaxLength) {
    out.resize(kMaxLength - 3);
    out += "...";
  }
  return out;
}

}  // namespace

PlannerContext::PlannerContext() : interner_(std::make_unique<Interner>()) {}

void PlannerContext::Reset() {
  catalogs_.clear();
  interner_ = std::make_unique<Interner>();
}

Planner::Planner(CatalogRegistry* catalogs, ServiceMetrics* metrics,
                 PlannerConfig config)
    : catalogs_(catalogs),
      metrics_(metrics),
      config_(config),
      cache_(config.cache_capacity, config.cache_shards) {}

Result<const MaterializedCatalog*> Planner::CatalogFor(
    const std::string& name, PlannerContext* ctx) {
  std::shared_ptr<const CatalogSpec> spec = catalogs_->Find(name);
  if (spec == nullptr) {
    return Status::InvalidArgument("unknown catalog '" + name + "'");
  }
  auto it = ctx->catalogs_.find(name);
  if (it != ctx->catalogs_.end() && it->second.version == spec->version) {
    return &it->second;
  }
  RELCONT_ASSIGN_OR_RETURN(MaterializedCatalog materialized,
                           MaterializeCatalog(*spec, ctx->interner()));
  auto [pos, inserted] =
      ctx->catalogs_.insert_or_assign(name, std::move(materialized));
  (void)inserted;
  return &pos->second;
}

PlanResponse Planner::Plan(const PlanRequest& request, PlannerContext* ctx) {
  auto start = std::chrono::steady_clock::now();
  PlanResponse out;
  out.request_id = metrics_->flight().NextRequestId();
  WorkBudget budget;
  int64_t timeout_ms = request.options.timeout_ms > 0
                           ? request.options.timeout_ms
                           : config_.default_timeout_ms;
  if (timeout_ms > 0) {
    budget.set_timeout(std::chrono::milliseconds(timeout_ms));
  }
  if (request.options.max_steps > 0) {
    budget.set_max_steps(request.options.max_steps);
  }
  std::shared_ptr<trace::TraceContext> trace_ctx;
  std::optional<trace::TraceScope> trace_scope;
  if (request.collect_trace || config_.trace_requests) {
    trace_ctx = std::make_shared<trace::TraceContext>();
    trace_ctx->set_request_id(out.request_id);
    trace_scope.emplace(trace_ctx.get());
  }
  out.status = [&]() -> Status {
    if (ctx->interner()->size() > config_.max_worker_symbols) {
      ctx->Reset();
    }
    RELCONT_ASSIGN_OR_RETURN(const MaterializedCatalog* catalog,
                             CatalogFor(request.catalog, ctx));
    out.catalog_version = catalog->version;
    RELCONT_ASSIGN_OR_RETURN(
        GoalQuery query, ParseGoalQuery(request.query_text, ctx->interner()));
    std::string key;
    if (!request.bypass_cache) {
      key = "P\x1f" + request.catalog + ":v" +
            std::to_string(catalog->version) + '\x1f' +
            CanonicalProgramFingerprint(query.program, query.goal,
                                        *ctx->interner()) +
            '\x1f' + PlanOptionsFingerprint(request.options);
      if (std::optional<CachedPlan> cached = cache_.Lookup(key)) {
        out.plan_text = std::move(cached->plan_text);
        out.dom_predicate = std::move(cached->dom_predicate);
        out.num_rules = cached->num_rules;
        out.recursive = cached->recursive;
        out.cache_hit = true;
        return Status::OK();
      }
    }
    // The plan's Skolem functions, fresh variables and dom predicate live
    // only until the plan is rendered and cached (same scope as
    // ContainmentService::Decide).
    InternerScope request_symbols(ctx->interner());
    BudgetScope budget_scope(&budget);
    RELCONT_TRACE_SPAN("planner_plan");
    if (!catalog->patterns.empty()) {
      // Section 4: the executable maximally-contained plan — recursive
      // through the unary dom accumulator, Skolem terms in the guarded
      // inverse rules (they round-trip through ParseProgram).
      RELCONT_ASSIGN_OR_RETURN(
          ExecutablePlanResult plan,
          ExecutablePlan(query.program, catalog->views, catalog->patterns,
                         ctx->interner()));
      out.plan_text = plan.program.ToString(*ctx->interner());
      out.dom_predicate = ctx->interner()->NameOf(plan.dom_predicate);
      out.num_rules = static_cast<int>(plan.program.rules.size());
      out.recursive = true;
    } else {
      // Section 2.3/3: inverse rules, then function-term elimination down
      // to the executable UCQ over the sources.
      RELCONT_ASSIGN_OR_RETURN(
          UnionQuery ucq,
          MaximallyContainedUnion(query.program, query.goal,
                                  catalog->inverse, ctx->interner(),
                                  request.options.unfold));
      out.plan_text = ucq.ToString(*ctx->interner());
      out.num_rules = static_cast<int>(ucq.disjuncts.size());
      out.recursive = false;
    }
    RELCONT_TRACE_COUNT(kPlannerPlansBuilt, 1);
    RELCONT_TRACE_COUNT(kPlannerPlanRules,
                        static_cast<uint64_t>(out.num_rules));
    if (!request.bypass_cache) {
      cache_.Insert(key, request.catalog,
                    CachedPlan{out.plan_text, out.dom_predicate,
                               out.num_rules, out.recursive,
                               /*contained=*/false, /*witness_text=*/""});
    }
    return Status::OK();
  }();
  trace_scope.reset();
  out.latency_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (out.status.code() == StatusCode::kBoundReached) {
    // Aggregation-level attribution: the whole PLAN? request ended in a
    // bound (whatever inner site minted it), so the planner shows up in
    // bound_hits{site=...} alongside the low-level sites.
    NoteBoundSite("planner_plan");
  }
  metrics_->RecordPlanRequest(
      /*rewrite=*/false,
      out.status.ok() ? (out.recursive ? Regime::kSection4 : Regime::kSection3)
                      : Regime::kUnknown,
      out.latency_micros, !out.status.ok());
  metrics_->RecordBudget(budget.tasks_spawned(), budget.tasks_completed(),
                         budget.reason() == BudgetReason::kDeadline);
  if (trace_ctx != nullptr) {
    metrics_->RecordTrace(
        out.recursive ? Regime::kSection4 : Regime::kSection3,
        out.latency_micros, *trace_ctx,
        DescribePlanRequest("PLAN?", request.query_text, request.catalog),
        out.request_id);
  }
  obs::WideEvent event;
  event.request_id = out.request_id;
  event.latency_micros = out.latency_micros;
  event.catalog_version = out.catalog_version;
  event.error = out.status.ok() ? 0 : 1;
  event.cache_hit = out.cache_hit ? 1 : 0;
  event.bound = out.status.code() == StatusCode::kBoundReached ? 1 : 0;
  event.set_verb("plan");
  event.set_regime(RegimeName(
      out.status.ok()
          ? (out.recursive ? Regime::kSection4 : Regime::kSection3)
          : Regime::kUnknown));
  event.set_catalog(request.catalog);
  event.set_bound_site(BoundSiteFromStatus(out.status));
  metrics_->RecordFlight(ServiceVerb::kPlan, event, trace_ctx.get());
  if (trace_ctx != nullptr) out.trace = std::move(trace_ctx);
  return out;
}

RewriteResponse Planner::Rewrite(const RewriteRequest& request,
                                 PlannerContext* ctx) {
  auto start = std::chrono::steady_clock::now();
  RewriteResponse out;
  out.request_id = metrics_->flight().NextRequestId();
  WorkBudget budget;
  int64_t timeout_ms = request.options.timeout_ms > 0
                           ? request.options.timeout_ms
                           : config_.default_timeout_ms;
  if (timeout_ms > 0) {
    budget.set_timeout(std::chrono::milliseconds(timeout_ms));
  }
  if (request.options.max_steps > 0) {
    budget.set_max_steps(request.options.max_steps);
  }
  std::shared_ptr<trace::TraceContext> trace_ctx;
  std::optional<trace::TraceScope> trace_scope;
  if (request.collect_trace || config_.trace_requests) {
    trace_ctx = std::make_shared<trace::TraceContext>();
    trace_ctx->set_request_id(out.request_id);
    trace_scope.emplace(trace_ctx.get());
  }
  bool used_patterns = false;
  out.status = [&]() -> Status {
    if (ctx->interner()->size() > config_.max_worker_symbols) {
      ctx->Reset();
    }
    RELCONT_ASSIGN_OR_RETURN(const MaterializedCatalog* catalog,
                             CatalogFor(request.catalog, ctx));
    out.catalog_version = catalog->version;
    // Set before the cache lookup so cache hits attribute their window
    // sample to the regime the cached answer came from.
    used_patterns = !catalog->patterns.empty();
    RELCONT_ASSIGN_OR_RETURN(
        GoalQuery q1, ParseGoalQuery(request.q1_text, ctx->interner()));
    RELCONT_ASSIGN_OR_RETURN(
        GoalQuery q2, ParseGoalQuery(request.q2_text, ctx->interner()));
    std::string key;
    if (!request.bypass_cache) {
      key = "R\x1f" + request.catalog + ":v" +
            std::to_string(catalog->version) + '\x1f' +
            CanonicalProgramFingerprint(q1.program, q1.goal,
                                        *ctx->interner()) +
            '\x1f' +
            CanonicalProgramFingerprint(q2.program, q2.goal,
                                        *ctx->interner()) +
            '\x1f' + PlanOptionsFingerprint(request.options);
      if (std::optional<CachedPlan> cached = cache_.Lookup(key)) {
        out.contained = cached->contained;
        out.witness_text = std::move(cached->witness_text);
        out.cache_hit = true;
        return Status::OK();
      }
    }
    InternerScope request_symbols(ctx->interner());
    BudgetScope budget_scope(&budget);
    RELCONT_TRACE_SPAN("planner_rewrite");
    if (used_patterns) {
      // Theorem 4.1: P1^exp ⊑ Q2 over the executable dom plan.
      RELCONT_ASSIGN_OR_RETURN(
          BindingRelativeResult result,
          RelativelyContainedWithBindingPatterns(
              q1, q2, catalog->views, catalog->patterns, ctx->interner(),
              request.options.dom));
      out.contained = result.contained;
      if (result.counterexample.has_value()) {
        out.witness_text = result.counterexample->ToString(*ctx->interner());
      }
    } else {
      // Theorem 5.2 route (degenerates to Theorem 3.1 without
      // comparisons): P1^exp ⊑ Q2 via the expansion.
      RelativeContainmentOptions options;
      options.unfold = request.options.unfold;
      options.parallel_workers =
          request.options.parallel_workers > 1
              ? request.options.parallel_workers
              : config_.default_parallel_workers;
      Rule witness;
      RELCONT_ASSIGN_OR_RETURN(
          out.contained,
          RelativelyContainedViaExpansion(q1, q2, catalog->views,
                                          ctx->interner(), options, &witness,
                                          &catalog->inverse));
      if (!out.contained) {
        out.witness_text = witness.ToString(*ctx->interner());
      }
    }
    if (!request.bypass_cache) {
      cache_.Insert(key, request.catalog,
                    CachedPlan{/*plan_text=*/"", /*dom_predicate=*/"",
                               /*num_rules=*/0, /*recursive=*/false,
                               out.contained, out.witness_text});
    }
    return Status::OK();
  }();
  trace_scope.reset();
  out.latency_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (out.status.code() == StatusCode::kBoundReached) {
    NoteBoundSite("planner_rewrite");
  }
  metrics_->RecordPlanRequest(
      /*rewrite=*/true,
      out.status.ok()
          ? (used_patterns ? Regime::kSection4 : Regime::kSection3)
          : Regime::kUnknown,
      out.latency_micros, !out.status.ok());
  metrics_->RecordBudget(budget.tasks_spawned(), budget.tasks_completed(),
                         budget.reason() == BudgetReason::kDeadline);
  if (trace_ctx != nullptr) {
    metrics_->RecordTrace(
        used_patterns ? Regime::kSection4 : Regime::kSection3,
        out.latency_micros, *trace_ctx,
        DescribePlanRequest("REWRITE?",
                            request.q1_text + " => " + request.q2_text,
                            request.catalog),
        out.request_id);
  }
  obs::WideEvent event;
  event.request_id = out.request_id;
  event.latency_micros = out.latency_micros;
  event.catalog_version = out.catalog_version;
  event.error = out.status.ok() ? 0 : 1;
  event.cache_hit = out.cache_hit ? 1 : 0;
  event.bound = out.status.code() == StatusCode::kBoundReached ? 1 : 0;
  event.set_verb("rewrite");
  event.set_regime(RegimeName(
      out.status.ok()
          ? (used_patterns ? Regime::kSection4 : Regime::kSection3)
          : Regime::kUnknown));
  event.set_catalog(request.catalog);
  event.set_bound_site(BoundSiteFromStatus(out.status));
  metrics_->RecordFlight(ServiceVerb::kRewrite, event, trace_ctx.get());
  if (trace_ctx != nullptr) out.trace = std::move(trace_ctx);
  return out;
}

}  // namespace relcont
