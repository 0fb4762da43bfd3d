#include "planner/planner.h"

#include <optional>
#include <utility>

#include "binding/dom_plan.h"
#include "common/budget.h"
#include "containment/canonical.h"
#include "relcont/binding_containment.h"
#include "relcont/relative_containment.h"
#include "rewriting/inverse_rules.h"

namespace relcont {

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

Planner::Planner(CatalogRegistry* catalogs, ServiceMetrics* metrics,
                 ServiceConfig config)
    : catalogs_(catalogs),
      metrics_(metrics),
      config_(config),
      cache_(kPlanCacheCapacity, kCacheShards) {}

PlanResponse Planner::Plan(const PlanRequest& request, WorkerContext* ctx) {
  // Aggregation-level attribution: a PLAN? request that ends in a bound
  // (whatever inner site minted it) shows up in bound_hits{site=...}
  // alongside the low-level sites.
  const RequestFacts facts{.verb = ServiceVerb::kPlan,
                           .regime = Regime::kSection3,
                           .bound_site = "planner_plan",
                           .describe_prefix = "PLAN?",
                           .q1 = request.query_text};
  PlanResponse out;
  ServeRequest(*metrics_, config_, *catalogs_, ctx, request, facts, &out,
               [&](const MaterializedCatalog& catalog, WorkBudget& budget,
                   Regime& regime) -> Status {
    RELCONT_ASSIGN_OR_RETURN(GoalQuery query,
                             ctx->ParseQuery(request.query_text));
    std::string key;
    if (!request.bypass_cache) {
      key = CatalogCacheKey(
          request.catalog, catalog.version,
          {"P",
           CanonicalProgramFingerprint(query.program, query.goal,
                                       *ctx->interner()),
           PlanOptionsFingerprint(request.options)});
      if (std::optional<CachedPlan> cached = cache_.Lookup(key)) {
        out.plan_text = std::move(cached->plan_text);
        out.dom_predicate = std::move(cached->dom_predicate);
        out.num_rules = cached->num_rules;
        out.recursive = cached->recursive;
        if (out.recursive) regime = Regime::kSection4;
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
    if (!catalog.patterns.empty()) {
      // Section 4: the executable maximally-contained plan — recursive
      // through the unary dom accumulator, Skolem terms in the guarded
      // inverse rules (they round-trip through ParseProgram).
      RELCONT_ASSIGN_OR_RETURN(
          ExecutablePlanResult plan,
          ExecutablePlan(query.program, catalog.views, catalog.patterns,
                         ctx->interner()));
      out.plan_text = plan.program.ToString(*ctx->interner());
      out.dom_predicate = ctx->interner()->NameOf(plan.dom_predicate);
      out.num_rules = static_cast<int>(plan.program.rules.size());
      out.recursive = true;
      regime = Regime::kSection4;
    } else {
      // Section 2.3/3: inverse rules, then function-term elimination down
      // to the executable UCQ over the sources.
      RELCONT_ASSIGN_OR_RETURN(
          UnionQuery ucq,
          MaximallyContainedUnion(query.program, query.goal,
                                  catalog.inverse, ctx->interner(),
                                  request.options.unfold));
      out.plan_text = ucq.ToString(*ctx->interner());
      out.num_rules = static_cast<int>(ucq.disjuncts.size());
      out.recursive = false;
    }
    RELCONT_TRACE_COUNT(kPlannerPlansBuilt, 1);
    RELCONT_TRACE_COUNT(kPlannerPlanRules,
                        static_cast<uint64_t>(out.num_rules));
    if (!request.bypass_cache) {
      cache_.Insert(key, CachedPlan{out.plan_text, out.dom_predicate,
                                    out.num_rules, out.recursive,
                                    /*contained=*/false,
                                    /*witness_text=*/""});
    }
    return Status::OK();
  });
  return out;
}

RewriteResponse Planner::Rewrite(const RewriteRequest& request,
                                 WorkerContext* ctx) {
  const RequestFacts facts{.verb = ServiceVerb::kRewrite,
                           .regime = Regime::kSection3,
                           .bound_site = "planner_rewrite",
                           .describe_prefix = "REWRITE?",
                           .q1 = request.q1_text,
                           .q2 = request.q2_text};
  RewriteResponse out;
  ServeRequest(*metrics_, config_, *catalogs_, ctx, request, facts, &out,
               [&](const MaterializedCatalog& catalog, WorkBudget& budget,
                   Regime& regime) -> Status {
    // Set before the cache lookup so cache hits attribute their window
    // sample to the regime the cached answer came from.
    const bool used_patterns = !catalog.patterns.empty();
    if (used_patterns) regime = Regime::kSection4;
    RELCONT_ASSIGN_OR_RETURN(GoalQuery q1, ctx->ParseQuery(request.q1_text));
    RELCONT_ASSIGN_OR_RETURN(GoalQuery q2, ctx->ParseQuery(request.q2_text));
    std::string key;
    if (!request.bypass_cache) {
      key = CatalogCacheKey(
          request.catalog, catalog.version,
          {"R",
           CanonicalProgramFingerprint(q1.program, q1.goal, *ctx->interner()),
           CanonicalProgramFingerprint(q2.program, q2.goal, *ctx->interner()),
           PlanOptionsFingerprint(request.options)});
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
              q1, q2, catalog.views, catalog.patterns, ctx->interner(),
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
          RelativelyContainedViaExpansion(q1, q2, catalog.views,
                                          ctx->interner(), options, &witness,
                                          &catalog.inverse));
      if (!out.contained) {
        out.witness_text = witness.ToString(*ctx->interner());
      }
    }
    if (!request.bypass_cache) {
      cache_.Insert(key, CachedPlan{/*plan_text=*/"", /*dom_predicate=*/"",
                                    /*num_rules=*/0, /*recursive=*/false,
                                    out.contained, out.witness_text});
    }
    return Status::OK();
  });
  return out;
}

}  // namespace relcont
