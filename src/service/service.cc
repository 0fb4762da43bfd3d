#include "service/service.h"

#include <atomic>
#include <optional>
#include <thread>

#include "common/budget.h"
#include "containment/canonical.h"
#include "datalog/parser.h"

namespace relcont {

// WorkerContext is declared beside MaterializedCatalog (service/catalog.h)
// but defined here, so that its MaterializeCatalog call crosses an object
// file: perfbench links with --wrap of that symbol to count catalog
// materializations.
WorkerContext::WorkerContext() : interner_(std::make_unique<Interner>()) {}

Result<const MaterializedCatalog*> WorkerContext::Catalog(
    const CatalogRegistry& registry, const std::string& name,
    int64_t max_symbols) {
  if (interner_->size() > max_symbols) {
    catalogs_.clear();
    interner_ = std::make_unique<Interner>();
  }
  std::shared_ptr<const CatalogSpec> spec = registry.Find(name);
  if (spec == nullptr) {
    return Status::InvalidArgument("unknown catalog '" + name + "'");
  }
  auto it = catalogs_.find(name);
  if (it != catalogs_.end() && it->second.version == spec->version) {
    return &it->second;
  }
  RELCONT_ASSIGN_OR_RETURN(MaterializedCatalog materialized,
                           MaterializeCatalog(*spec, interner_.get()));
  return &catalogs_.insert_or_assign(name, std::move(materialized))
              .first->second;
}

Result<GoalQuery> WorkerContext::ParseQuery(const std::string& text) {
  RELCONT_ASSIGN_OR_RETURN(Program program,
                           ParseProgram(text, interner_.get()));
  if (program.rules.empty()) {
    return Status::InvalidArgument("query text contains no rules");
  }
  SymbolId goal = program.rules[0].head.predicate;
  return GoalQuery{std::move(program), goal};
}

namespace {

/// Every option that can change a decision must appear in the key, or the
/// cache would serve a decision computed under different bounds: the
/// plan-shaping options plus the containment check's own.
///
/// The budget fields (timeout_ms, max_steps, parallel_workers) are
/// deliberately absent: a budget can only turn a decision into a non-OK
/// kBoundReached status, and non-OK results are never cached — so every
/// cached verdict is budget-independent, and requests that differ only in
/// budget may share an entry.
std::string OptionsFingerprint(const DecideOptions& o) {
  std::string out = std::to_string(o.max_rule_applications);
  out += ',';
  out += PlanOptionsFingerprint(o);
  out += ',';
  // The strategy never changes a verdict (cegar ≡ scan by construction),
  // but the reported witness may differ, so cached answers are kept
  // per-engine.
  out += ContainmentStrategyName(o.strategy);
  return out;
}

std::string MakeCacheKey(const GoalQuery& q1, const GoalQuery& q2,
                         const std::string& catalog_name,
                         int64_t catalog_version,
                         const DecideOptions& options,
                         const Interner& interner) {
  return CatalogCacheKey(
      catalog_name, catalog_version,
      {CanonicalProgramFingerprint(q1.program, q1.goal, interner),
       CanonicalProgramFingerprint(q2.program, q2.goal, interner),
       OptionsFingerprint(options)});
}

}  // namespace

ContainmentService::ContainmentService(ServiceConfig config)
    : config_(config),
      cache_(config.cache_capacity, kCacheShards),
      planner_(&catalogs_, &metrics_, config) {
  metrics_.set_slow_log_capacity(config.slow_log_capacity);
  metrics_.set_window_secs(config.window_secs);
  metrics_.flight().Configure({config.flight_ring_capacity,
                               config.flight_arena_kb * 1024,
                               config.flight_head_sample});
  // Re-registering a catalog bumps its version, which already rotates every
  // cache key; the listener additionally reclaims the dead entries so a
  // churning catalog cannot crowd out live decisions and plans.
  catalogs_.set_registration_listener(
      [this](const std::string& name, int64_t /*version*/) {
        cache_.InvalidateCatalog(name);
        planner_.cache().InvalidateCatalog(name);
      });
}

Result<std::string> ContainmentService::CacheKey(
    const DecisionRequest& request, WorkerContext* ctx) {
  RELCONT_ASSIGN_OR_RETURN(
      const MaterializedCatalog* catalog,
      ctx->Catalog(catalogs_, request.catalog, config_.max_worker_symbols));
  RELCONT_ASSIGN_OR_RETURN(GoalQuery q1, ctx->ParseQuery(request.q1_text));
  RELCONT_ASSIGN_OR_RETURN(GoalQuery q2, ctx->ParseQuery(request.q2_text));
  return MakeCacheKey(q1, q2, request.catalog, catalog->version,
                      request.options, *ctx->interner());
}

DecisionResponse ContainmentService::Decide(const DecisionRequest& request,
                                            WorkerContext* ctx) {
  const int workers = request.options.parallel_workers > 1
                          ? request.options.parallel_workers
                          : config_.default_parallel_workers;
  const RequestFacts facts{.verb = ServiceVerb::kContained,
                           .worker_count = static_cast<uint32_t>(workers),
                           .q1 = request.q1_text,
                           .q2 = request.q2_text};
  DecisionResponse out;
  ServeRequest(metrics_, config_, catalogs_, ctx, request, facts, &out,
               [&](const MaterializedCatalog& catalog, WorkBudget& budget,
                   Regime& regime) -> Status {
    RELCONT_ASSIGN_OR_RETURN(GoalQuery q1, ctx->ParseQuery(request.q1_text));
    RELCONT_ASSIGN_OR_RETURN(GoalQuery q2, ctx->ParseQuery(request.q2_text));
    std::string key;
    if (!request.bypass_cache) {
      key = MakeCacheKey(q1, q2, request.catalog, catalog.version,
                         request.options, *ctx->interner());
      if (std::optional<CachedDecision> cached = cache_.Lookup(key)) {
        out.contained = cached->contained;
        regime = out.regime = cached->regime;
        out.witness_text = std::move(cached->witness_text);
        out.cache_hit = true;
        return Status::OK();
      }
    }
    // Everything the decision interns from here on (renamed-apart rule
    // copies, fresh unfold variables, Skolem terms) dies with the request:
    // the witness leaves as text, and the scope rolls the arena back to
    // the catalogs and parsed queries on every exit path.
    InternerScope request_symbols(ctx->interner());
    DecideOptions options = request.options;
    options.parallel_workers = workers;
    BudgetScope budget_scope(&budget);
    RELCONT_ASSIGN_OR_RETURN(
        Decision decision,
        DecideRelativeContainment(
            q1, q2, catalog.views, catalog.patterns, ctx->interner(),
            options, catalog.patterns.empty() ? &catalog.inverse : nullptr));
    out.contained = decision.contained;
    regime = out.regime = decision.regime;
    if (decision.witness.has_value()) {
      out.witness_text = decision.witness->ToString(*ctx->interner());
    }
    if (!request.bypass_cache) {
      cache_.Insert(key, CachedDecision{out.contained, out.regime,
                                        out.witness_text});
    }
    return Status::OK();
  });
  return out;
}

std::vector<DecisionResponse> ContainmentService::ExecuteBatch(
    const std::vector<DecisionRequest>& requests, int num_threads) {
  std::vector<DecisionResponse> out(requests.size());
  // Every batch item counts as queued until a worker claims it, so the
  // batch_queue_depth gauge exposes backlog while a batch is in flight.
  metrics_.AddBatchQueueDepth(static_cast<int64_t>(requests.size()));
  std::atomic<size_t> next{0};
  auto work = [&]() {
    WorkerContext ctx;
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < requests.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      metrics_.AddBatchQueueDepth(-1);
      out[i] = Decide(requests[i], &ctx);
    }
  };
  if (num_threads <= 1 || requests.size() <= 1) {
    work();
    return out;
  }
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
  return out;
}

}  // namespace relcont
