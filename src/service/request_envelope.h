#ifndef RELCONT_SERVICE_REQUEST_ENVELOPE_H_
#define RELCONT_SERVICE_REQUEST_ENVELOPE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/budget.h"
#include "obs/flight.h"
#include "relcont/decide.h"
#include "service/catalog.h"
#include "service/config.h"
#include "service/metrics.h"
#include "trace/trace.h"

namespace relcont {

/// The fields every served request shares: DecisionRequest, PlanRequest
/// and RewriteRequest add their query texts.
struct ServedRequest {
  /// Name of a catalog previously registered with the service.
  std::string catalog;
  DecideOptions options;
  /// When true the cache is neither consulted nor filled (used by the
  /// benchmarks to measure cold cost, and available to clients that need a
  /// from-scratch re-derivation).
  bool bypass_cache = false;
  /// When true the request runs under a TraceContext and the response
  /// carries the recorded span tree (EXPLAIN sets this, together with
  /// bypass_cache so there is an actual computation to trace).
  bool collect_trace = false;
};

/// The fields every served response shares: DecisionResponse, PlanResponse
/// and RewriteResponse add their answers, which are meaningful only when
/// status is OK.
struct ServedResponse {
  /// Non-OK on parse errors, unknown catalogs, unsupported fragments, or
  /// an exhausted budget (kBoundReached).
  Status status;
  bool cache_hit = false;
  uint64_t latency_micros = 0;
  /// The flight-recorder request id minted for this request; echoed on
  /// protocol response lines (`id=N` / `ERR [id=N]`) and the key into
  /// /requestz?id=N when the request was retained.
  uint64_t request_id = 0;
  /// Version of the catalog the request ran against (0 when it failed
  /// before catalog resolution), so the access log can attribute an
  /// answer to the exact catalog snapshot it saw.
  int64_t catalog_version = 0;
  /// The span tree, present iff tracing was requested for this request
  /// (empty spans when the hooks are compiled out). Shared so responses
  /// stay cheap to copy.
  std::shared_ptr<const trace::TraceContext> trace;
};

/// What the envelope needs to know of a verb, passed to ServeRequest as
/// data. The views point into the caller's request, which outlives the
/// call.
struct RequestFacts {
  ServiceVerb verb = ServiceVerb::kContained;
  /// The regime a request is attributed to until its body says otherwise.
  Regime regime = Regime::kUnknown;
  /// bound_hits{site} attribution of a kBoundReached answer on top of the
  /// inner site that minted it ("" = none).
  std::string_view bound_site = {};
  /// Parallel width recorded on the wide event (0 = the verb records none).
  uint32_t worker_count = 0;
  /// The slow-log description, `[<prefix> ]<q1>[ => <q2>] @<catalog>`
  /// (DescribeRequest); rendered only when the request is traced.
  std::string_view describe_prefix = {};
  std::string_view q1 = {};
  std::string_view q2 = {};
};

/// One newline-free line identifying a request in the slow log: at most
/// 160 bytes, cut on a UTF-8 code point boundary and marked with "...".
inline std::string DescribeRequest(const RequestFacts& facts,
                                   std::string_view catalog) {
  std::string out;
  if (!facts.describe_prefix.empty()) {
    out += facts.describe_prefix;
    out += ' ';
  }
  out += facts.q1;
  if (!facts.q2.empty()) {
    out += " => ";
    out += facts.q2;
  }
  out += " @";
  out += catalog;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  constexpr size_t kMaxLength = 160;
  if (out.size() > kMaxLength) {
    out.resize(obs::Utf8PrefixLength(out, kMaxLength - 3));
    out += "...";
  }
  return out;
}

/// The one request path of CONTAINED?, PLAN? and REWRITE?. Mints the
/// request id, builds the request's WorkBudget from its options and the
/// config defaults, installs a trace when the request or the config asks
/// for one, resolves the request's catalog in `ctx`, runs `body` on it,
/// and then — on every exit path, errors included — times the request and
/// records it: the verb's counters, the budget outcome, the trace
/// aggregates, and the flight recorder's wide event. The inflight gauge
/// counts the request meanwhile.
///
/// `body(const MaterializedCatalog&, WorkBudget&, Regime&) -> Status`
/// answers into the response that `out` points at (its verb fields and
/// cache_hit) and may refine the regime. It installs the budget itself
/// (BudgetScope) once the cache has missed, so a hit never pays for it.
/// The regime counts only for an OK answer; the trace aggregates take it
/// either way.
template <typename Body>
void ServeRequest(ServiceMetrics& metrics, const ServiceConfig& config,
                  const CatalogRegistry& catalogs, WorkerContext* ctx,
                  const ServedRequest& request, const RequestFacts& facts,
                  ServedResponse* out, Body&& body) {
  const auto start = std::chrono::steady_clock::now();
  metrics.IncInflight();
  out->request_id = metrics.flight().NextRequestId();
  // The service owns the one budget governing this request; the library
  // sees it via the installed BudgetScope and skips its own (decide.cc).
  // Request options take precedence over the config defaults.
  WorkBudget budget;
  const int64_t timeout_ms = request.options.timeout_ms > 0
                                 ? request.options.timeout_ms
                                 : config.default_timeout_ms;
  if (timeout_ms > 0) {
    budget.set_timeout(std::chrono::milliseconds(timeout_ms));
  }
  if (request.options.max_steps > 0) {
    budget.set_max_steps(request.options.max_steps);
  }
  std::shared_ptr<trace::TraceContext> trace_ctx;
  std::optional<trace::TraceScope> trace_scope;
  if (request.collect_trace || config.trace_requests) {
    trace_ctx = std::make_shared<trace::TraceContext>();
    trace_ctx->set_request_id(out->request_id);
    // Installed for this thread only; concurrent workers each install
    // their own context, so traces never interleave.
    trace_scope.emplace(trace_ctx.get());
  }
  Regime regime = facts.regime;
  out->status = [&]() -> Status {
    RELCONT_ASSIGN_OR_RETURN(
        const MaterializedCatalog* catalog,
        ctx->Catalog(catalogs, request.catalog, config.max_worker_symbols));
    out->catalog_version = catalog->version;
    return body(*catalog, budget, regime);
  }();
  trace_scope.reset();
  out->latency_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  metrics.DecInflight();

  const bool error = !out->status.ok();
  const bool bound = out->status.code() == StatusCode::kBoundReached;
  const Regime answered = error ? Regime::kUnknown : regime;
  if (bound && !facts.bound_site.empty()) NoteBoundSite(facts.bound_site);
  if (facts.verb == ServiceVerb::kContained) {
    metrics.RecordRequest(answered, out->latency_micros, error,
                          out->cache_hit);
  } else {
    metrics.RecordPlanRequest(facts.verb == ServiceVerb::kRewrite, answered,
                              out->latency_micros, error);
  }
  metrics.RecordBudget(budget.tasks_spawned(), budget.tasks_completed(),
                       budget.reason() == BudgetReason::kDeadline);
  if (trace_ctx != nullptr) {
    metrics.RecordTrace(regime, out->latency_micros, *trace_ctx,
                        DescribeRequest(facts, request.catalog),
                        out->request_id);
  }
  obs::WideEvent event;
  event.request_id = out->request_id;
  event.latency_micros = out->latency_micros;
  event.catalog_version = out->catalog_version;
  event.worker_count = facts.worker_count;
  event.error = error ? 1 : 0;
  event.cache_hit = out->cache_hit ? 1 : 0;
  event.bound = bound ? 1 : 0;
  event.set_verb(ServiceVerbName(facts.verb));
  event.set_regime(RegimeName(answered));
  event.set_catalog(request.catalog);
  event.set_bound_site(BoundSiteFromStatus(out->status));
  metrics.RecordFlight(facts.verb, event, trace_ctx.get());
  if (trace_ctx != nullptr) out->trace = std::move(trace_ctx);
}

}  // namespace relcont

#endif  // RELCONT_SERVICE_REQUEST_ENVELOPE_H_
