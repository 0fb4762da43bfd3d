#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <random>
#include <set>
#include <thread>

#include "containment/canonical.h"
#include "datalog/parser.h"
#include "planner/planner.h"
#include "relcont/decide.h"
#include "relcont/pi2p_reduction.h"
#include "relcont/workload.h"
#include "replies.h"
#include "service/catalog.h"
#include "service/metrics.h"

namespace perfbench {

using relcont::Interner;

std::string CatalogDef::Line() const {
  std::string out = "CATALOG " + name;
  size_t pos = 0;
  while (pos < views_text.size()) {
    size_t eol = views_text.find('\n', pos);
    if (eol == std::string::npos) eol = views_text.size();
    if (eol > pos) out += " VIEW " + views_text.substr(pos, eol - pos);
    pos = eol + 1;
  }
  for (const auto& [source, adornment] : patterns) {
    out += " PATTERN " + source + " " + adornment;
  }
  out += '\n';
  return out;
}

std::string Workload::Wire(const ConnectionPlan& conn,
                           const Request& r) const {
  const std::string& catalog = catalogs[r.catalog].name;
  switch (r.verb) {
    case Verb::kContained:
      return "CONTAINED? " + conn.pool[r.a].name + " " + conn.pool[r.b].name +
             " @" + catalog + contained_options + "\n";
    case Verb::kPlan:
      return "DEFINE q " + conn.pool[r.a].text + "\nPLAN? q @" + catalog +
             "\n";
    case Verb::kRegister:
      return catalogs[r.catalog].Line();
  }
  return "";
}

int Workload::ReplyLines(const ConnectionPlan& conn, const Request& r) const {
  return r.verb == Verb::kPlan ? 2 + conn.plans[r.a].rules : 1;
}

std::string PlanFingerprint(const std::string& plan_text,
                            const std::string& goal) {
  Interner interner;
  relcont::Result<relcont::Program> program =
      relcont::ParseProgram(plan_text, &interner);
  if (!program.ok()) return "";
  return relcont::CanonicalProgramFingerprint(
      *program, interner.Intern(goal), interner);
}

namespace {

// ---------------------------------------------------------------------------
// Sizes. A run sends its whole stream: the lengths are the work of one run,
// sized so that the current server finishes each stream in 13-15 s on a
// quiet 4-core host, half of the benchmark's run_seconds (30 s). A faster
// server ends a run early; --seconds only cuts a run that is more than
// twice as slow (NOTES.md, "The closed loop").

// Seed of the fixed parts of warm_hits (catalog and pool), cold_pairs (its
// catalogs) and qbf_search (the Theorem 3.3 instance family). Per-seed
// catalogs and instances made the cost of a run, and of warm_hits' warm-up,
// depend mostly on what a seed happened to draw.
constexpr uint64_t kFamilySeed = 20001;

// warm_hits: every ordered pair of a small pool, Zipf-hot in a seeded order.
constexpr int kWarmPool = 12;
constexpr double kWarmZipf = 1.0;
// One connection: with two, each round trip also waited for the other
// connection's request on the shared CPU.
constexpr int kWarmConnections = 1;
constexpr int kWarmStream = 540'000;  // per connection

// cold_pairs: per-connection pools, never a repeated pair. One connection:
// the decisions keep a server thread busy, and with two of them the
// figures moved with whatever else ran on the host (p90 spread up to 0.3).
constexpr int kColdConnections = 1;
constexpr int kColdPool = 1000;
constexpr int kColdExamplePool = 96;
constexpr int kColdExampleEvery = 8;  // every 8th request is an Example 1 pair
constexpr int kColdStream = 14'000;
// Random-view catalogs, requests spread round-robin over them.
constexpr int kColdCatalogs = 8;

// qbf_search: Thm 3.3 instances at m = 12 (3 existential variables,
// 4 clauses), one ∀∃-satisfiable (YES) instance in every kQbfYesEvery.
// The family is as large as the stream: no instance repeats in a run.
constexpr int kQbfForall = 12;
constexpr int kQbfExists = 3;
constexpr int kQbfClauses = 4;
constexpr int kQbfYesEvery = 5;
constexpr int kQbfStream = 1'000;

// session_churn: chain queries against a path-view catalog.
constexpr int kChurnViews = 200;
constexpr int kChurnPool = 48;
constexpr int kChurnRegisterEvery = 64;
constexpr int kChurnStream = 300;  // per connection

constexpr char kExample1Views[] =
    "redcars(CarNo, Model, Year) :- cardesc(CarNo, Model, red, Year).\n"
    "antiquecars(CarNo, Model, Year) :- "
    "cardesc(CarNo, Model, Color, Year), Year < 1970.\n"
    "caranddriver(Model, Review) :- review(Model, Review, 10).\n";

relcont::RandomQueryOptions CqOptions(uint64_t seed) {
  relcont::RandomQueryOptions o;
  o.num_atoms = 3;
  o.num_variables = 4;
  o.num_predicates = 3;
  o.arity = 2;
  o.constant_probability = 0.1;
  o.head_arity = 1;
  o.seed = seed;
  return o;
}

std::string RandomCq(uint64_t seed, const std::string& head) {
  Interner interner;
  return relcont::RandomConjunctiveQuery(CqOptions(seed), head, &interner)
      .ToString(interner);
}

CatalogDef RandomViewCatalog(uint64_t seed, std::string name) {
  Interner interner;
  relcont::ViewSet views = relcont::RandomViews(CqOptions(seed), 10, &interner);
  CatalogDef out;
  out.name = std::move(name);
  for (const relcont::ViewDefinition& v : views.views()) {
    out.views_text += v.rule.ToString(interner) + "\n";
  }
  return out;
}

/// Example 1 of the paper with varied constants: the rating constant and
/// the year bound change, so the pair lands in the comparison regimes.
std::string Example1Query(std::mt19937_64* rng, const std::string& head) {
  std::uniform_int_distribution<int> shape(0, 3);
  std::uniform_int_distribution<int> year(1950, 1990);
  std::uniform_int_distribution<int> rating(8, 10);
  std::string out = head + "(CarNo, Review) :- cardesc(CarNo, Model, C, Y), ";
  int s = shape(*rng);
  out += (s == 0 || s == 1) ? "review(Model, Review, Rating)"
                            : "review(Model, Review, " +
                                  std::to_string(rating(*rng)) + ")";
  if (s == 1 || s == 3) out += ", Y < " + std::to_string(year(*rng));
  out += ".";
  return out;
}

/// Zipf rank in [0, n) with weight (r+1)^-s (inverse CDF).
class Zipf {
 public:
  Zipf(int n, double s) {
    double total = 0;
    for (int r = 0; r < n; ++r) {
      total += std::pow(r + 1.0, -s);
      cdf_.push_back(total);
    }
  }
  int Draw(std::mt19937_64* rng) const {
    std::uniform_real_distribution<double> u(0.0, cdf_.back());
    double x = u(*rng);
    return static_cast<int>(std::lower_bound(cdf_.begin(), cdf_.end(), x) -
                            cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Runs `fn(i)` for i in [0, n) on up to `threads` threads.
template <typename Fn>
void ParallelFor(int n, int threads, Fn fn) {
  std::atomic<int> next{0};
  auto work = [&] {
    for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < std::max(1, threads); ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
}

/// The differential oracle: the scan engine, in-process, one interner per
/// thread. Fills expect_yes of every kContained request in `requests`.
bool ContainedOracle(const Workload& w, const ConnectionPlan& conn,
                     const std::vector<Request*>& requests, int threads,
                     std::string* error) {
  std::atomic<bool> failed{false};
  std::string first_error;
  std::mutex error_mu;
  constexpr int kChunk = 64;
  int chunks = static_cast<int>((requests.size() + kChunk - 1) / kChunk);
  ParallelFor(chunks, threads, [&](int chunk) {
    if (failed.load()) return;
    // A fresh arena per chunk keeps the symbol table small.
    Interner interner;
    std::vector<relcont::ViewSet> views;
    for (const CatalogDef& c : w.catalogs) {
      views.push_back(*relcont::ParseViews(c.views_text, &interner));
    }
    relcont::DecideOptions options;
    options.strategy = relcont::ContainmentStrategy::kScan;
    size_t end = std::min(requests.size(), size_t(chunk + 1) * kChunk);
    for (size_t i = size_t(chunk) * kChunk; i < end; ++i) {
      Request* r = requests[i];
      auto parse = [&](int q) -> relcont::Result<relcont::GoalQuery> {
        relcont::Result<relcont::Program> p =
            relcont::ParseProgram(conn.pool[q].text, &interner);
        if (!p.ok()) return p.status();
        relcont::SymbolId goal = p->rules[0].head.predicate;
        return relcont::GoalQuery{std::move(*p), goal};
      };
      relcont::Result<relcont::GoalQuery> q1 = parse(r->a);
      relcont::Result<relcont::GoalQuery> q2 = parse(r->b);
      relcont::Result<relcont::Decision> d =
          q1.ok() && q2.ok()
              ? relcont::DecideRelativeContainment(
                    *q1, *q2, views[r->catalog], {}, &interner, options)
              : relcont::Result<relcont::Decision>(
                    q1.ok() ? q2.status() : q1.status());
      if (!d.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!failed.exchange(true)) {
          first_error = "oracle failed on " + conn.pool[r->a].name + " " +
                        conn.pool[r->b].name + ": " + d.status().ToString();
        }
        return;
      }
      r->expect_yes = d->contained;
    }
  });
  if (failed) *error = first_error;
  return !failed;
}

bool MakeWarmHits(uint64_t seed, int threads, Workload* w,
                  std::string* error) {
  // The catalog, the pool and so the warm-up are fixed; the seed ranks the
  // pairs and draws the stream.
  w->catalogs.push_back(RandomViewCatalog(kFamilySeed, "rv"));
  ConnectionPlan proto;
  for (int i = 0; i < kWarmPool; ++i) {
    std::string name = "h" + std::to_string(i);
    proto.pool.push_back({name, RandomCq(kFamilySeed * 1000 + i, name)});
  }
  // The hot set: every distinct ordered pair, hottest first.
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<std::pair<int, int>> all;
  for (int a = 0; a < kWarmPool; ++a) {
    for (int b = 0; b < kWarmPool; ++b) {
      if (a != b) all.emplace_back(a, b);
    }
  }
  std::shuffle(all.begin(), all.end(), rng);
  std::vector<Request> hot;
  for (auto [a, b] : all) {
    Request r;
    r.a = a;
    r.b = b;
    hot.push_back(r);
  }
  std::vector<Request*> targets;
  for (Request& r : hot) targets.push_back(&r);
  if (!ContainedOracle(*w, proto, targets, threads, error)) return false;
  Zipf zipf(static_cast<int>(hot.size()), kWarmZipf);
  for (int c = 0; c < kWarmConnections; ++c) {
    ConnectionPlan conn = proto;
    if (c == 0) conn.warmup = hot;  // the cache is shared by all sessions
    std::mt19937_64 stream_rng(seed * 31 + c);
    conn.stream.reserve(kWarmStream);
    for (int i = 0; i < kWarmStream; ++i) {
      conn.stream.push_back(hot[zipf.Draw(&stream_rng)]);
    }
    w->connections.push_back(std::move(conn));
  }
  return true;
}

bool MakeColdPairs(uint64_t seed, int threads, Workload* w,
                   std::string* error) {
  for (int k = 0; k < kColdCatalogs; ++k) {
    w->catalogs.push_back(RandomViewCatalog(kFamilySeed + k,
                                            "rv" + std::to_string(k)));
  }
  const uint8_t ex1_index = kColdCatalogs;
  CatalogDef ex1;
  ex1.name = "ex1";
  ex1.views_text = kExample1Views;
  w->catalogs.push_back(ex1);
  for (int c = 0; c < kColdConnections; ++c) {
    ConnectionPlan conn;
    std::mt19937_64 rng(seed * 131 + c);
    // Head names are unique per connection, so no two requests of the run
    // share a cache key (the canonical fingerprint keeps the goal name).
    const std::string prefix = "c" + std::to_string(c);
    for (int i = 0; i < kColdPool; ++i) {
      std::string name = prefix + "q" + std::to_string(i);
      conn.pool.push_back({name, RandomCq(seed * 100000 + c * 1000 + i, name)});
    }
    for (int i = 0; i < kColdExamplePool; ++i) {
      std::string name = prefix + "x" + std::to_string(i);
      conn.pool.push_back({name, Example1Query(&rng, name)});
    }
    // Distinct ordered pairs, drawn without repetition.
    auto pairs = [&](int base, int n, size_t count) {
      static_assert(size_t{kColdPool} * (kColdPool - 1) >= kColdStream &&
                        size_t{kColdExamplePool} * (kColdExamplePool - 1) >=
                            kColdStream / kColdExampleEvery,
                    "the pools must hold enough distinct pairs");
      std::set<std::pair<int, int>> seen;
      std::vector<std::pair<int, int>> out;
      std::uniform_int_distribution<int> pick(0, n - 1);
      while (out.size() < count) {
        int a = pick(rng), b = pick(rng);
        if (a != b && seen.insert({a, b}).second) {
          out.emplace_back(base + a, base + b);
        }
      }
      return out;
    };
    const size_t examples = kColdStream / kColdExampleEvery;
    std::vector<std::pair<int, int>> cq =
        pairs(0, kColdPool, kColdStream - examples);
    std::vector<std::pair<int, int>> ex =
        pairs(kColdPool, kColdExamplePool, examples);
    size_t next_cq = 0, next_ex = 0;
    for (int i = 0; i < kColdStream; ++i) {
      Request r;
      bool example = i % kColdExampleEvery == kColdExampleEvery - 1;
      auto [a, b] = example ? ex.at(next_ex++) : cq.at(next_cq++);
      r.a = a;
      r.b = b;
      r.catalog = example ? ex1_index
                          : static_cast<uint8_t>(next_cq % kColdCatalogs);
      r.comparison = example;
      conn.stream.push_back(r);
    }
    w->connections.push_back(std::move(conn));
  }
  for (ConnectionPlan& conn : w->connections) {
    std::vector<Request*> targets;
    for (Request& r : conn.stream) targets.push_back(&r);
    if (!ContainedOracle(*w, conn, targets, threads, error)) return false;
  }
  return true;
}

bool MakeQbfSearch(uint64_t seed, Workload* w, std::string* error) {
  w->contained_options = " timeout_ms=60000";
  // The instance family is fixed and as large as the stream; the seed only
  // orders it. CEGAR cost differs a lot between ∀∃-satisfiable instances,
  // and a seed-drawn family made the figures depend on which ones a seed
  // drew. No instance is sent twice, so every request misses the cache
  // whatever the cache key keeps.
  struct Instance {
    std::string q1, q2;  // head-less: "() :- body."
  };
  std::vector<Instance> yes, no;
  const size_t want_yes = kQbfStream / kQbfYesEvery;
  const size_t want_no = kQbfStream - want_yes;
  std::set<std::string> seen;
  CatalogDef catalog;
  catalog.name = "qbf";
  auto strip_head = [](std::string text, const std::string& head) {
    while (!text.empty() && text.back() == '\n') text.pop_back();
    return text.substr(head.size());
  };
  for (uint64_t k = 0; yes.size() < want_yes || no.size() < want_no; ++k) {
    if (k > 1000 * uint64_t{kQbfStream}) {
      *error = "qbf_search: could not draw enough instances";
      return false;
    }
    relcont::QbfFormula f = relcont::RandomQbf(
        kQbfExists, kQbfForall, kQbfClauses, kFamilySeed * 1000003 + k);
    bool sat = relcont::ForallExistsSatisfiable(f);
    if (sat ? yes.size() >= want_yes : no.size() >= want_no) continue;
    Interner interner;
    relcont::Result<relcont::Pi2pInstance> inst =
        relcont::BuildPi2pReduction(f, &interner);
    if (!inst.ok()) continue;
    Instance t{strip_head(inst->q1.program.ToString(interner), "q1"),
               strip_head(inst->q2.program.ToString(interner), "q2")};
    if (!seen.insert(t.q1 + t.q2).second) continue;
    std::string views;
    for (const relcont::ViewDefinition& v : inst->views.views()) {
      views += v.rule.ToString(interner) + "\n";
    }
    if (catalog.views_text.empty()) catalog.views_text = views;
    if (views != catalog.views_text) {
      *error = "qbf_search: instances disagree on the catalog";
      return false;
    }
    (sat ? yes : no).push_back(std::move(t));
  }
  w->catalogs.push_back(catalog);
  std::mt19937_64 rng(seed);
  std::shuffle(yes.begin(), yes.end(), rng);
  std::shuffle(no.begin(), no.end(), rng);
  ConnectionPlan conn;
  size_t next_yes = 0, next_no = 0;
  for (int i = 0; i < kQbfStream; ++i) {
    // One YES instance in every kQbfYesEvery positions.
    bool sat = i % kQbfYesEvery == kQbfYesEvery - 1;
    const Instance& t = sat ? yes[next_yes++] : no[next_no++];
    std::string suffix = std::to_string(i);
    int a = static_cast<int>(conn.pool.size());
    // Theorem 3.3: F is ∀∃-satisfiable  ⇔  q2 ⊑_V q1.
    conn.pool.push_back({"f" + suffix, "qb" + suffix + t.q2});
    conn.pool.push_back({"g" + suffix, "qa" + suffix + t.q1});
    Request r;
    r.a = a;
    r.b = a + 1;
    r.expect_yes = sat;
    conn.stream.push_back(r);
  }
  w->connections.push_back(std::move(conn));
  return true;
}

bool MakeSessionChurn(uint64_t seed, Workload* w, std::string* error) {
  relcont::PathViewOptions pv;
  pv.num_views = kChurnViews;
  pv.seed = seed;
  relcont::PathViewWorkload generated = relcont::MakePathViewWorkload(pv);
  CatalogDef catalog;
  catalog.name = "pv";
  catalog.views_text = generated.views_text;
  catalog.patterns = generated.patterns;
  w->catalogs.push_back(catalog);

  // Distinct chain queries over the same skewed relations.
  std::vector<QueryDef> pool;
  std::set<std::string> seen;
  for (uint64_t k = 0; pool.size() < kChurnPool; ++k) {
    if (k > 100000) {
      *error = "session_churn: could not draw enough chain queries";
      return false;
    }
    relcont::PathViewOptions qo;
    qo.num_views = 0;
    qo.query_length = 1 + static_cast<int>(k % 3);
    qo.seed = seed * 7777 + k;
    std::string text = relcont::MakePathViewWorkload(qo).query_text;
    if (seen.insert(text).second) pool.push_back({"q", text});
  }

  // The oracle: the library planner against the same catalog text.
  relcont::CatalogRegistry registry;
  relcont::ServiceMetrics metrics;
  relcont::Planner planner(&registry, &metrics);
  relcont::Result<int64_t> version =
      registry.Register("pv", catalog.views_text, catalog.patterns);
  if (!version.ok()) {
    *error = "session_churn: " + version.status().ToString();
    return false;
  }
  std::vector<ExpectedPlan> plans;
  relcont::PlannerContext ctx;
  for (const QueryDef& q : pool) {
    relcont::PlanRequest request;
    request.query_text = q.text;
    request.catalog = "pv";
    relcont::PlanResponse response = planner.Plan(request, &ctx);
    if (!response.status.ok()) {
      *error = "session_churn oracle: " + response.status.ToString();
      return false;
    }
    std::string text =
        RenamePredicate(response.plan_text, response.dom_predicate, "dom");
    plans.push_back({response.num_rules, text, PlanFingerprint(text, "q")});
  }

  for (int c = 0; c < 2; ++c) {
    ConnectionPlan conn;
    conn.pool = pool;
    conn.plans = plans;
    conn.define_pool = false;
    std::mt19937_64 rng(seed * 17 + c);
    std::uniform_int_distribution<int> pick(0, kChurnPool - 1);
    for (int i = 0; i < kChurnStream; ++i) {
      Request r;
      if (c == 0 && i % kChurnRegisterEvery == kChurnRegisterEvery - 1) {
        r.verb = Verb::kRegister;
      } else {
        r.verb = Verb::kPlan;
        r.a = pick(rng);
      }
      conn.stream.push_back(r);
    }
    w->connections.push_back(std::move(conn));
  }
  return true;
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, int threads,
                  Workload* out, std::string* error) {
  *out = Workload();
  out->name = name;
  if (name == "warm_hits") return MakeWarmHits(seed, threads, out, error);
  if (name == "cold_pairs") return MakeColdPairs(seed, threads, out, error);
  if (name == "qbf_search") return MakeQbfSearch(seed, out, error);
  if (name == "session_churn") return MakeSessionChurn(seed, out, error);
  *error = "unknown workload '" + name + "'";
  return false;
}

}  // namespace perfbench
