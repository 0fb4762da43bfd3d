#include "service/service.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "common/budget.h"
#include "containment/canonical.h"
#include "datalog/parser.h"

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

/// Every option that can change a decision must appear in the key, or the
/// cache would serve a decision computed under different bounds.
///
/// The budget fields (timeout_ms, max_steps, parallel_workers) are
/// deliberately absent: a budget can only turn a decision into a non-OK
/// kBoundReached status, and non-OK results are never cached — so every
/// cached verdict is budget-independent, and requests that differ only in
/// budget may share an entry.
std::string OptionsFingerprint(const DecideOptions& o) {
  std::string out = std::to_string(o.max_rule_applications);
  out += ',';
  out += std::to_string(o.unfold.max_disjuncts);
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
  std::string key = catalog_name;
  key += ":v";
  key += std::to_string(catalog_version);
  key += '\x1f';
  key += CanonicalProgramFingerprint(q1.program, q1.goal, interner);
  key += '\x1f';
  key += CanonicalProgramFingerprint(q2.program, q2.goal, interner);
  key += '\x1f';
  key += OptionsFingerprint(options);
  return key;
}

/// One newline-free line identifying a request in the slow log.
std::string DescribeRequest(const DecisionRequest& request) {
  std::string out = request.q1_text + " => " + request.q2_text + " @" +
                    request.catalog;
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

WorkerContext::WorkerContext() : interner_(std::make_unique<Interner>()) {}

void WorkerContext::Reset() {
  catalogs_.clear();
  interner_ = std::make_unique<Interner>();
}

namespace {

PlannerConfig PlannerConfigFrom(const ServiceConfig& config) {
  PlannerConfig out;
  out.cache_capacity = config.plan_cache_capacity;
  out.cache_shards = config.plan_cache_shards;
  out.max_worker_symbols = config.max_worker_symbols;
  out.trace_requests = config.trace_requests;
  out.default_timeout_ms = config.default_timeout_ms;
  out.default_parallel_workers = config.default_parallel_workers;
  return out;
}

}  // namespace

ContainmentService::ContainmentService(ServiceConfig config)
    : config_(config),
      cache_(config.cache_capacity, config.cache_shards),
      planner_(&catalogs_, &metrics_, PlannerConfigFrom(config)) {
  metrics_.set_slow_log_capacity(config.slow_log_capacity);
  metrics_.set_window_secs(config.window_secs);
  metrics_.flight().Configure({config.flight_ring_capacity,
                               config.flight_arena_kb * 1024,
                               config.flight_head_sample});
  // Re-registering a catalog bumps its version, which already rotates plan
  // cache keys; the listener additionally reclaims the dead entries so a
  // churning catalog cannot crowd out live plans.
  catalogs_.set_registration_listener(
      [this](const std::string& name, int64_t version) {
        (void)version;
        planner_.cache().InvalidateCatalog(name);
      });
}

Result<const MaterializedCatalog*> ContainmentService::CatalogFor(
    const std::string& name, WorkerContext* ctx) {
  std::shared_ptr<const CatalogSpec> spec = catalogs_.Find(name);
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

Result<std::string> ContainmentService::CacheKey(
    const DecisionRequest& request, WorkerContext* ctx) {
  RELCONT_ASSIGN_OR_RETURN(const MaterializedCatalog* catalog,
                           CatalogFor(request.catalog, ctx));
  RELCONT_ASSIGN_OR_RETURN(GoalQuery q1,
                           ParseGoalQuery(request.q1_text, ctx->interner()));
  RELCONT_ASSIGN_OR_RETURN(GoalQuery q2,
                           ParseGoalQuery(request.q2_text, ctx->interner()));
  return MakeCacheKey(q1, q2, request.catalog, catalog->version,
                      request.options, *ctx->interner());
}

DecisionResponse ContainmentService::Decide(const DecisionRequest& request,
                                            WorkerContext* ctx) {
  auto start = std::chrono::steady_clock::now();
  metrics_.IncInflight();
  DecisionResponse out;
  out.request_id = metrics_.flight().NextRequestId();
  // The service owns the one budget governing this request; the library
  // sees it via the installed BudgetScope and skips its own (decide.cc).
  // Request options take precedence over the config defaults.
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
    // Installed for this thread only; concurrent workers each install
    // their own context, so traces never interleave.
    trace_scope.emplace(trace_ctx.get());
  }
  // The body below returns early through this lambda so the latency and
  // metrics accounting runs on every path, including errors.
  out.status = [&]() -> Status {
    if (ctx->interner()->size() > config_.max_worker_symbols) {
      ctx->Reset();
    }
    RELCONT_ASSIGN_OR_RETURN(const MaterializedCatalog* catalog,
                             CatalogFor(request.catalog, ctx));
    out.catalog_version = catalog->version;
    RELCONT_ASSIGN_OR_RETURN(
        GoalQuery q1, ParseGoalQuery(request.q1_text, ctx->interner()));
    RELCONT_ASSIGN_OR_RETURN(
        GoalQuery q2, ParseGoalQuery(request.q2_text, ctx->interner()));
    std::string key;
    if (!request.bypass_cache) {
      key = MakeCacheKey(q1, q2, request.catalog, catalog->version,
                         request.options, *ctx->interner());
      if (std::optional<CachedDecision> cached = cache_.Lookup(key)) {
        out.contained = cached->contained;
        out.regime = cached->regime;
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
    if (options.parallel_workers <= 1) {
      options.parallel_workers = config_.default_parallel_workers;
    }
    BudgetScope budget_scope(&budget);
    RELCONT_ASSIGN_OR_RETURN(
        Decision decision,
        DecideRelativeContainment(
            q1, q2, catalog->views, catalog->patterns, ctx->interner(),
            options, catalog->patterns.empty() ? &catalog->inverse : nullptr));
    out.contained = decision.contained;
    out.regime = decision.regime;
    if (decision.witness.has_value()) {
      out.witness_text = decision.witness->ToString(*ctx->interner());
    }
    if (!request.bypass_cache) {
      cache_.Insert(key, CachedDecision{out.contained, out.regime,
                                        out.witness_text});
    }
    return Status::OK();
  }();
  trace_scope.reset();
  out.latency_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  metrics_.DecInflight();
  metrics_.RecordRequest(out.regime, out.latency_micros, !out.status.ok(),
                         out.cache_hit);
  metrics_.RecordBudget(budget.tasks_spawned(), budget.tasks_completed(),
                        budget.reason() == BudgetReason::kDeadline);
  if (trace_ctx != nullptr) {
    metrics_.RecordTrace(out.regime, out.latency_micros, *trace_ctx,
                         DescribeRequest(request), out.request_id);
  }
  obs::WideEvent event;
  event.request_id = out.request_id;
  event.latency_micros = out.latency_micros;
  event.catalog_version = out.catalog_version;
  event.worker_count = static_cast<uint32_t>(
      request.options.parallel_workers > 1
          ? request.options.parallel_workers
          : config_.default_parallel_workers);
  event.error = out.status.ok() ? 0 : 1;
  event.cache_hit = out.cache_hit ? 1 : 0;
  event.bound = out.status.code() == StatusCode::kBoundReached ? 1 : 0;
  event.set_verb("contained");
  event.set_regime(RegimeName(out.regime));
  event.set_catalog(request.catalog);
  event.set_bound_site(BoundSiteFromStatus(out.status));
  metrics_.RecordFlight(ServiceVerb::kContained, event, trace_ctx.get());
  if (trace_ctx != nullptr) out.trace = std::move(trace_ctx);
  return out;
}

std::vector<DecisionResponse> ContainmentService::ExecuteBatch(
    const std::vector<DecisionRequest>& requests, int num_threads) {
  std::vector<DecisionResponse> out(requests.size());
  // Every batch item counts as queued until a worker claims it, so the
  // batch_queue_depth gauge exposes backlog while a batch is in flight.
  metrics_.AddBatchQueueDepth(static_cast<int64_t>(requests.size()));
  if (num_threads <= 1 || requests.size() <= 1) {
    WorkerContext ctx;
    for (size_t i = 0; i < requests.size(); ++i) {
      metrics_.AddBatchQueueDepth(-1);
      out[i] = Decide(requests[i], &ctx);
    }
    return out;
  }
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
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
  return out;
}

}  // namespace relcont
