#include "replay.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <utility>

#include "client.h"
#include "containment/canonical.h"
#include "datalog/parser.h"
#include "datalog/unfold.h"
#include "obs/exposition.h"
#include "relcont/cegar.h"
#include "relcont/decide.h"
#include "replies.h"
#include "rewriting/inverse_rules.h"
#include "service/protocol.h"
#include "service/service.h"

namespace {
std::atomic<uint64_t> g_materializations{0};
}  // namespace

// perfbench_loadgen links with --wrap of MaterializeCatalog's symbol
// (CMakeLists.txt), so the library's calls to it from other source files
// land here. The weak __real_ keeps other links of this file working; there
// the wrapper is never called.
extern "C" {
__attribute__((weak)) relcont::Result<relcont::MaterializedCatalog>
__real__ZN7relcont18MaterializeCatalogERKNS_11CatalogSpecEPNS_8InternerE(
    const relcont::CatalogSpec& spec, relcont::Interner* interner);

relcont::Result<relcont::MaterializedCatalog>
__wrap__ZN7relcont18MaterializeCatalogERKNS_11CatalogSpecEPNS_8InternerE(
    const relcont::CatalogSpec& spec, relcont::Interner* interner) {
  g_materializations.fetch_add(1, std::memory_order_relaxed);
  return __real__ZN7relcont18MaterializeCatalogERKNS_11CatalogSpecEPNS_8InternerE(
      spec, interner);
}
}

namespace perfbench {

int SpanRecorder::Begin(const char* name, int parent, uint32_t request) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start_ns = NowNs();
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::End(int index) { spans_[index].end_ns = NowNs(); }

bool SpanRecorder::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%u}\n",
                 s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.parent,
                 s.request);
  }
  return std::fclose(f) == 0;
}

double SpanRecorder::MeasureOverheadNs() {
  constexpr int kSpans = 200000;
  SpanRecorder scratch;
  scratch.spans_.reserve(kSpans);
  int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) scratch.End(scratch.Begin("x", -1, 0));
  return static_cast<double>(NowNs() - start) / kSpans;
}

namespace {

using relcont::GoalQuery;
using relcont::Interner;

// Bounds on the replay: it stays a sample, not a second benchmark.
constexpr size_t kMaxReplayPerConnection = 20000;
constexpr int kSetupRepeats = 5;
constexpr int kRenderRepeats = 200;

class Replayer {
 public:
  Replayer(const Workload& w, SpanRecorder* rec) : w_(w), rec_(rec) {
    for (size_t c = 0; c < w.connections.size(); ++c) {
      sessions_.push_back(std::make_unique<relcont::ServerSession>(&line_svc_));
      worker_ctx_.push_back(std::make_unique<relcont::WorkerContext>());
      planner_ctx_.push_back(std::make_unique<relcont::PlannerContext>());
    }
    if (w.contained_options.find("timeout_ms=") != std::string::npos) {
      timeout_ms_ = std::stoll(w.contained_options.substr(
          w.contained_options.find("timeout_ms=") + 11));
    }
  }

  void Setup();
  void Run(size_t conn, const Request& r, uint32_t request);
  void Finish(ReplayResult* out);

 private:
  template <typename F>
  double Timed(const char* name, int parent, uint32_t request, F&& fn) {
    int span = rec_->Begin(name, parent, request);
    fn();
    rec_->End(span);
    const Span& s = rec_->spans()[span];
    double us = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    samples_[name].push_back(us);
    return us;
  }

  /// ServerSession::HandleLine, counting the catalog materializations the
  /// call makes.
  std::string Serve(size_t conn, const std::string& line);
  void Register(size_t catalog, int parent, uint32_t request);
  bool Parse(const std::string& text, GoalQuery* out);
  std::string CacheKey(size_t catalog, const std::string& fp1,
                       const std::string& fp2) const;
  void RunContained(size_t c, const Request& r, int root, uint32_t request);
  void RunPlan(size_t c, const Request& r, int root, uint32_t request);
  /// Parse, fingerprint and cache lookup (plus the insert on a miss) of
  /// one pair, as the service front door runs them.
  void RunLayers(size_t catalog, const std::string& t1, const std::string& t2,
                 int root, uint32_t request);
  void RunEngines(size_t catalog, const GoalQuery& q1, const GoalQuery& q2,
                  bool comparison, int root, uint32_t request);
  /// InvertViews + MaximallyContainedPlan for both queries, then (when
  /// `unfold`) the unfold of both plans.
  void RunPlanLayers(size_t catalog, const GoalQuery& q1, const GoalQuery& q2,
                     bool unfold, int root, uint32_t request);

  const Workload& w_;
  SpanRecorder* rec_;
  int64_t timeout_ms_ = 0;
  /// Answers the protocol lines (service.handle_line).
  relcont::ContainmentService line_svc_;
  std::vector<std::unique_ptr<relcont::ServerSession>> sessions_;
  /// Answers ContainmentService::Decide and Planner::Plan directly.
  relcont::ContainmentService direct_svc_;
  std::vector<std::unique_ptr<relcont::WorkerContext>> worker_ctx_;
  std::vector<std::unique_ptr<relcont::PlannerContext>> planner_ctx_;
  /// Layer-by-layer calls run against this arena and these mirrors.
  std::unique_ptr<Interner> interner_ = std::make_unique<Interner>();
  std::vector<relcont::MaterializedCatalog> catalogs_;
  std::vector<int64_t> versions_;
  relcont::DecisionCache cache_{4096, 8};
  relcont::ServiceMetrics telemetry_;

  std::map<std::string, std::vector<double>> samples_;
  uint64_t materializations_ = 0;
  double unfold_disjuncts_ = 0;
  uint64_t unfold_calls_ = 0;

 public:
  uint64_t requests = 0;
  uint64_t failed = 0;
};

bool Replayer::Parse(const std::string& text, GoalQuery* out) {
  relcont::Result<relcont::Program> p =
      relcont::ParseProgram(text, interner_.get());
  if (!p.ok() || p->rules.empty()) return false;
  out->goal = p->rules[0].head.predicate;
  out->program = std::move(*p);
  return true;
}

std::string Replayer::CacheKey(size_t catalog, const std::string& fp1,
                               const std::string& fp2) const {
  return w_.catalogs[catalog].name + ":v" + std::to_string(versions_[catalog]) +
         '\x1f' + fp1 + '\x1f' + fp2 + '\x1f' + "auto";
}

std::string Replayer::Serve(size_t conn, const std::string& line) {
  uint64_t before = g_materializations.load();
  std::string reply = sessions_[conn]->HandleLine(line);
  materializations_ += g_materializations.load() - before;
  return reply;
}

void Replayer::Register(size_t catalog, int parent, uint32_t request) {
  const CatalogDef& def = w_.catalogs[catalog];
  Timed("service.register", parent, request, [&] {
    relcont::Result<int64_t> v = direct_svc_.catalogs().Register(
        def.name, def.views_text, def.patterns);
    if (v.ok()) versions_[catalog] = *v;
  });
  std::shared_ptr<const relcont::CatalogSpec> spec =
      direct_svc_.catalogs().Find(def.name);
  Timed("service.materialize", parent, request, [&] {
    relcont::Result<relcont::MaterializedCatalog> m =
        relcont::MaterializeCatalog(*spec, interner_.get());
    if (m.ok()) catalogs_[catalog] = std::move(*m);
  });
}

void Replayer::Setup() {
  catalogs_.resize(w_.catalogs.size());
  versions_.assign(w_.catalogs.size(), 0);
  int root = rec_->Begin("setup", -1, 0);
  for (size_t k = 0; k < w_.catalogs.size(); ++k) {
    std::string line = w_.catalogs[k].Line();
    line.pop_back();
    Serve(0, line);
    // One catalog per run is too few samples for a median: register and
    // materialize it a few times.
    for (int rep = 0; rep < kSetupRepeats; ++rep) Register(k, root, 0);
  }
  for (size_t c = 0; c < w_.connections.size(); ++c) {
    const ConnectionPlan& conn = w_.connections[c];
    if (!conn.define_pool) continue;
    for (const QueryDef& q : conn.pool) {
      Serve(c, "DEFINE " + q.name + " " + q.text);
    }
  }
  for (size_t c = 0; c < w_.connections.size(); ++c) {
    const ConnectionPlan& conn = w_.connections[c];
    for (const Request& r : conn.warmup) {
      std::string line = w_.Wire(conn, r);
      line.pop_back();
      Serve(c, line);
      relcont::DecisionRequest dr;
      dr.q1_text = conn.pool[r.a].text;
      dr.q2_text = conn.pool[r.b].text;
      dr.catalog = w_.catalogs[r.catalog].name;
      direct_svc_.Decide(dr, worker_ctx_[c].get());
      GoalQuery q1, q2;
      if (Parse(dr.q1_text, &q1) && Parse(dr.q2_text, &q2)) {
        cache_.Insert(
            CacheKey(r.catalog,
                     relcont::CanonicalProgramFingerprint(q1.program, q1.goal,
                                                          *interner_),
                     relcont::CanonicalProgramFingerprint(q2.program, q2.goal,
                                                          *interner_)),
            relcont::CachedDecision{r.expect_yes, relcont::Regime::kSection3,
                                    ""});
      }
    }
  }
  rec_->End(root);
}

void Replayer::RunLayers(size_t catalog, const std::string& t1,
                         const std::string& t2, int root, uint32_t request) {
  GoalQuery q1, q2;
  bool parsed = false;
  Timed("datalog.parse", root, request,
        [&] { parsed = Parse(t1, &q1) && Parse(t2, &q2); });
  if (!parsed) return;
  std::string fp1, fp2;
  Timed("containment.fingerprint", root, request, [&] {
    fp1 = relcont::CanonicalProgramFingerprint(q1.program, q1.goal, *interner_);
    fp2 = relcont::CanonicalProgramFingerprint(q2.program, q2.goal, *interner_);
  });
  std::string key = CacheKey(catalog, fp1, fp2);
  bool hit = false;
  Timed("service.cache_lookup", root, request, [&] {
    hit = cache_.Lookup(key).has_value();
    // A miss is followed by the insert (and, when full, an eviction).
    if (!hit) cache_.Insert(key, relcont::CachedDecision{});
  });
}

void Replayer::RunPlanLayers(size_t catalog, const GoalQuery& q1,
                             const GoalQuery& q2, bool unfold, int root,
                             uint32_t request) {
  const relcont::MaterializedCatalog& cat = catalogs_[catalog];
  Timed("rewriting.invert_views", root, request,
        [&] { (void)relcont::InvertViews(cat.views, interner_.get()); });
  relcont::Result<relcont::Program> p1 = relcont::Status::OK();
  relcont::Result<relcont::Program> p2 = relcont::Status::OK();
  Timed("rewriting.plan_build", root, request, [&] {
    p1 = relcont::MaximallyContainedPlan(q1.program, cat.views,
                                         interner_.get());
    p2 = relcont::MaximallyContainedPlan(q2.program, cat.views,
                                         interner_.get());
  });
  if (!p1.ok() || !p2.ok() || !unfold) return;
  Timed("datalog.unfold", root, request, [&] {
    for (auto* p : {&p1, &p2}) {
      relcont::SymbolId goal = p == &p1 ? q1.goal : q2.goal;
      relcont::Result<relcont::UnionQuery> u =
          relcont::UnfoldToUnion(**p, goal, interner_.get());
      if (u.ok()) unfold_disjuncts_ += u->disjuncts.size();
      ++unfold_calls_;
    }
  });
}

void Replayer::RunEngines(size_t catalog, const GoalQuery& q1,
                          const GoalQuery& q2, bool comparison, int root,
                          uint32_t request) {
  const relcont::MaterializedCatalog& cat = catalogs_[catalog];
  relcont::CegarGlobalCounters& cegar = relcont::GlobalCegarCounters();
  uint64_t before = cegar.proposals.load() + cegar.iterations.load();
  relcont::DecideOptions options;  // the service defaults: kAuto
  double decide = Timed("relcont.decide", root, request, [&] {
    (void)relcont::DecideRelativeContainment(q1, q2, cat.views, cat.patterns,
                                             interner_.get(), options);
  });
  bool chose_cegar =
      cegar.proposals.load() + cegar.iterations.load() != before;
  // The unfolded plans are what the scan compares; on CEGAR-wide
  // instances they are exponential and the engine never builds them.
  if (!comparison) {
    RunPlanLayers(catalog, q1, q2, !chose_cegar, root, request);
  }
  // The engine kAuto chose, on its own.
  double engine = 0;
  if (!chose_cegar) {
    engine = Timed("relcont.scan", root, request, [&] {
      if (comparison) {
        relcont::DecideOptions scan;
        scan.strategy = relcont::ContainmentStrategy::kScan;
        (void)relcont::DecideRelativeContainment(q1, q2, cat.views, {},
                                                 interner_.get(), scan);
      } else {
        relcont::RelativeContainmentOptions scan;
        scan.strategy = relcont::ContainmentStrategy::kScan;
        (void)relcont::RelativelyContained(q1, q2, cat.views, interner_.get(),
                                           scan);
      }
    });
  } else if (!comparison) {
    relcont::RelativeContainmentOptions c;
    c.strategy = relcont::ContainmentStrategy::kCegar;
    engine = Timed("relcont.cegar", root, request, [&] {
      (void)relcont::CegarRelativelyContained(q1, q2, cat.views,
                                              interner_.get(), c);
    });
  }
  // decide ÷ (plan build + unfold + the engine kAuto chose), where the
  // engine call includes its own plan build and unfold: above 1 means the
  // front door does work the engine then does again.
  if (decide > 0 && engine > 0) {
    samples_["relcont.decide_over_parts"].push_back(decide / engine);
  }
}

void Replayer::RunContained(size_t c, const Request& r, int root,
                            uint32_t request) {
  const ConnectionPlan& conn = w_.connections[c];
  std::string line = w_.Wire(conn, r);
  line.pop_back();
  std::string reply;
  double handle = Timed("service.handle_line", root, request,
                        [&] { reply = Serve(c, line); });
  Reply parsed = ParseReplyLine(reply);
  bool ok = (parsed.kind == ReplyKind::kYes && r.expect_yes) ||
            (parsed.kind == ReplyKind::kNo && !r.expect_yes);
  if (!ok) ++failed;
  if (parsed.server_us >= 0) {
    samples_["service.handle_line_self"].push_back(
        handle - static_cast<double>(parsed.server_us));
  }

  const std::string& t1 = conn.pool[r.a].text;
  const std::string& t2 = conn.pool[r.b].text;
  relcont::DecisionRequest dr;
  dr.q1_text = t1;
  dr.q2_text = t2;
  dr.catalog = w_.catalogs[r.catalog].name;
  dr.options.timeout_ms = timeout_ms_;
  relcont::DecisionResponse response;
  Timed("service.decide", root, request,
        [&] { response = direct_svc_.Decide(dr, worker_ctx_[c].get()); });
  Timed("service.telemetry", root, request, [&] {
    telemetry_.RecordRequest(response.regime, response.latency_micros, false,
                             response.cache_hit);
    relcont::obs::WideEvent event;
    event.request_id = response.request_id;
    event.latency_micros = response.latency_micros;
    event.cache_hit = response.cache_hit ? 1 : 0;
    event.set_verb("contained");
    event.set_regime(relcont::RegimeName(response.regime));
    event.set_catalog(dr.catalog);
    telemetry_.RecordFlight(relcont::ServiceVerb::kContained, event, nullptr);
  });
  RunLayers(r.catalog, t1, t2, root, request);
  // The engines run only where the server ran them: on a cache miss.
  if (parsed.cache_hit) return;
  GoalQuery q1, q2;
  if (Parse(t1, &q1) && Parse(t2, &q2)) {
    RunEngines(r.catalog, q1, q2, r.comparison, root, request);
  }
}

void Replayer::RunPlan(size_t c, const Request& r, int root,
                       uint32_t request) {
  const ConnectionPlan& conn = w_.connections[c];
  const std::string& text = conn.pool[r.a].text;
  const std::string catalog = w_.catalogs[r.catalog].name;
  std::string define_reply, plan_reply;
  double handle = Timed("service.handle_line", root, request, [&] {
    define_reply = Serve(c, "DEFINE q " + text);
    plan_reply = Serve(c, "PLAN? q @" + catalog);
  });
  Reply parsed = ParseReplyLine(plan_reply.substr(0, plan_reply.find('\n')));
  if (parsed.kind != ReplyKind::kOkPlan ||
      parsed.rules != conn.plans[r.a].rules) {
    ++failed;
  }
  if (parsed.server_us >= 0) {
    samples_["service.handle_line_self"].push_back(
        handle - static_cast<double>(parsed.server_us));
  }

  relcont::PlanRequest pr;
  pr.query_text = text;
  pr.catalog = catalog;
  relcont::PlanResponse response;
  int span = rec_->Begin("planner.plan", root, request);
  response = direct_svc_.planner().Plan(pr, planner_ctx_[c].get());
  rec_->End(span);
  const Span& s = rec_->spans()[span];
  samples_[response.cache_hit ? "planner.plan_warm" : "planner.plan_cold"]
      .push_back(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
  Timed("service.telemetry", root, request, [&] {
    telemetry_.RecordPlanRequest(false, relcont::Regime::kSection4,
                                 response.latency_micros, false);
    relcont::obs::WideEvent event;
    event.request_id = response.request_id;
    event.latency_micros = response.latency_micros;
    event.cache_hit = response.cache_hit ? 1 : 0;
    event.set_verb("plan");
    event.set_catalog(catalog);
    telemetry_.RecordFlight(relcont::ServiceVerb::kPlan, event, nullptr);
  });
}

void Replayer::Run(size_t c, const Request& r, uint32_t request) {
  ++requests;
  if (interner_->size() > (int64_t{1} << 20)) {
    // Same retirement rule as the service's worker arenas.
    interner_ = std::make_unique<Interner>();
    for (size_t k = 0; k < catalogs_.size(); ++k) {
      std::shared_ptr<const relcont::CatalogSpec> spec =
          direct_svc_.catalogs().Find(w_.catalogs[k].name);
      catalogs_[k] = *relcont::MaterializeCatalog(*spec, interner_.get());
    }
  }
  int root = rec_->Begin("request", -1, request);
  switch (r.verb) {
    case Verb::kContained:
      RunContained(c, r, root, request);
      break;
    case Verb::kPlan:
      RunPlan(c, r, root, request);
      break;
    case Verb::kRegister: {
      std::string line = w_.catalogs[r.catalog].Line();
      line.pop_back();
      Serve(c, line);
      Register(r.catalog, root, request);
      break;
    }
  }
  rec_->End(root);
}

void Replayer::Finish(ReplayResult* out) {
  relcont::obs::MetricsSnapshot snapshot = line_svc_.metrics().Snapshot(
      line_svc_.cache().Stats(), line_svc_.planner().cache().Stats());
  for (int i = 0; i < kRenderRepeats; ++i) {
    Timed("obs.render_metrics", -1, 0, [&] {
      std::string text = relcont::obs::RenderPrometheusText(snapshot);
      if (text.empty()) ++failed;
    });
  }
  auto median = [&](const char* name) {
    auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : Median(it->second);
  };
  auto& m = out->metrics;
  m["obs.render_metrics_us"] = median("obs.render_metrics");
  m["service.handle_line_us"] = median("service.handle_line_self");
  m["service.decide_us"] = median("service.decide");
  m["service.cache_lookup_us"] = median("service.cache_lookup");
  m["service.telemetry_us"] = median("service.telemetry");
  m["service.materialize_us"] = median("service.materialize");
  m["service.materializations"] = static_cast<double>(materializations_);
  m["service.register_us"] = median("service.register");
  m["datalog.parse_us"] = median("datalog.parse");
  m["datalog.unfold_us"] = median("datalog.unfold");
  m["datalog.unfold_disjuncts"] =
      unfold_calls_ == 0 ? 0.0 : unfold_disjuncts_ / unfold_calls_;
  m["containment.fingerprint_us"] = median("containment.fingerprint");
  m["rewriting.invert_views_us"] = median("rewriting.invert_views");
  m["rewriting.plan_build_us"] = median("rewriting.plan_build");
  m["relcont.decide_us"] = median("relcont.decide");
  m["relcont.scan_us"] = median("relcont.scan");
  m["relcont.cegar_us"] = median("relcont.cegar");
  m["relcont.decide_over_parts"] = median("relcont.decide_over_parts");
  m["planner.plan_cold_us"] = median("planner.plan_cold");
  m["planner.plan_warm_us"] = median("planner.plan_warm");
  out->requests = requests;
  out->failed = failed;
}

}  // namespace

ReplayResult Replay(const Workload& w, const std::vector<size_t>& sent,
                    double seconds, const std::string& spans_path) {
  SpanRecorder rec;
  Replayer replayer(w, &rec);
  replayer.Setup();
  int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<size_t> next(w.connections.size(), 0);
  uint32_t request = 0;
  bool progress = true;
  while (progress && NowNs() < deadline) {
    progress = false;
    for (size_t c = 0; c < w.connections.size(); ++c) {
      size_t limit = std::min(sent[c], kMaxReplayPerConnection);
      if (next[c] >= limit) continue;
      replayer.Run(c, w.connections[c].stream[next[c]++], ++request);
      progress = true;
    }
  }
  ReplayResult out;
  replayer.Finish(&out);
  out.metrics["trace.span_overhead_ns"] = SpanRecorder::MeasureOverheadNs();
  out.metrics["trace.spans"] = static_cast<double>(rec.spans().size());
  if (!spans_path.empty() && !rec.Write(spans_path)) ++out.failed;
  return out;
}

}  // namespace perfbench
