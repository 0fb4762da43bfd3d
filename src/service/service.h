#ifndef RELCONT_SERVICE_SERVICE_H_
#define RELCONT_SERVICE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sharded_lru.h"
#include "planner/planner.h"
#include "relcont/decide.h"
#include "service/catalog.h"
#include "service/config.h"
#include "service/metrics.h"
#include "service/request_envelope.h"
#include "trace/trace.h"

namespace relcont {

/// The containment-decision service: many clients ask `Q1 ⊑_V Q2 ?`
/// against named catalogs of source descriptions, and the service amortizes
/// the (Π₂ᴾ-hard) decisions with a canonical-form cache and a thread-pool
/// batch executor.
///
/// Concurrency model. Decisions are pure functions of
/// (Q1, Q2, catalog, options), but the library's decision procedures
/// allocate fresh symbols through a non-thread-safe Interner. The service
/// therefore confines every Interner-carrying structure to a WorkerContext
/// (service/catalog.h) owned by exactly one thread at a time; the only
/// shared state is the catalog registry (mutex), the decision and plan
/// caches (sharded mutexes, values are interner-independent text), and the
/// metrics (atomics).

/// A containment decision in interner-independent form, so one cache can
/// serve every worker arena: the witness travels as rendered text rather
/// than as a Rule full of thread-local SymbolIds.
struct CachedDecision {
  bool contained = false;
  Regime regime = Regime::kUnknown;
  /// Rendered witness ("" when the decision has none).
  std::string witness_text;
};

/// Decisions keyed by CatalogCacheKey over the canonical fingerprints of
/// Q1 and Q2, then the options fingerprint.
using DecisionCache = ShardedLru<CachedDecision>;

/// One containment question. The query texts use the ParseProgram syntax
/// (multi-rule text forms a UCQ or recursive program); the goal is the
/// head predicate of the first rule.
struct DecisionRequest : ServedRequest {
  std::string q1_text;
  std::string q2_text;
};

struct DecisionResponse : ServedResponse {
  bool contained = false;
  Regime regime = Regime::kUnknown;
  /// Rendered witness ("" when none — see Decision::witness).
  std::string witness_text;
};

class ContainmentService {
 public:
  explicit ContainmentService(ServiceConfig config = {});

  CatalogRegistry& catalogs() { return catalogs_; }
  DecisionCache& cache() { return cache_; }
  ServiceMetrics& metrics() { return metrics_; }
  Planner& planner() { return planner_; }
  const ServiceConfig& config() const { return config_; }

  /// The metrics plus both caches' counters: what METRICS, STATUSZ,
  /// /metrics, /statusz and /buildz render.
  obs::MetricsSnapshot Snapshot() {
    return metrics_.Snapshot(cache_.Stats(), planner_.cache().Stats());
  }

  /// Answers one request using the caller-owned worker context. Safe to
  /// call from many threads as long as each uses its own context.
  DecisionResponse Decide(const DecisionRequest& request, WorkerContext* ctx);

  /// Fans `requests` across `num_threads` workers (each with a fresh
  /// WorkerContext) and returns responses positionally aligned with the
  /// requests. `num_threads <= 1` runs inline on the calling thread.
  std::vector<DecisionResponse> ExecuteBatch(
      const std::vector<DecisionRequest>& requests, int num_threads);

  /// The cache key for `request` as seen from `ctx`: canonical query
  /// fingerprints + catalog identity + options. Exposed for tests.
  Result<std::string> CacheKey(const DecisionRequest& request,
                               WorkerContext* ctx);

 private:
  ServiceConfig config_;
  CatalogRegistry catalogs_;
  DecisionCache cache_;
  ServiceMetrics metrics_;
  /// Declared after catalogs_ and metrics_ (it points at both).
  Planner planner_;
};

}  // namespace relcont

#endif  // RELCONT_SERVICE_SERVICE_H_
