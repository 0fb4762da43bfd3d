// The load generator: one process that builds a workload from its seed,
// computes the oracle answers, starts relcont_serve, drives it over
// loopback with closed-loop clients (one thread per connection, each
// waiting for its reply before the next request), checks every answer, and
// prints one JSON result line. With --trace 1 it also replays the same
// requests in-process (replay.h) and reports per-layer figures.
//
//   perfbench_loadgen --server <relcont_serve> --workload <name> --seed <n>
//                     --seconds <s> --trace <0|1> [--spans <file>]

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "replay.h"
#include "replies.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 15;
// The timed phase is cut into up to this many windows; the latency
// percentiles are medians over the windows, so a burst of load from
// elsewhere on the host moves one window, not the run. A window holds at
// least kMinWindowRequests requests: a percentile of a small window is
// noisier than the bursts it filters (qbf_search completes ~70 per second).
// Throughput is over the whole phase: requests differ in cost, and a median
// of window rates moved with which requests fell into which window.
constexpr uint64_t kWindows = 10;
constexpr uint64_t kMinWindowRequests = 500;
// Above this share of the pinned CPU's time stolen by the hypervisor, a run
// is flagged.
constexpr double kStealWarn = 0.05;
constexpr int kExchangeTimeoutMs = 20000;
constexpr int kStartTimeoutMs = 10000;

struct Options {
  std::string server;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

struct ConnResult {
  size_t sent = 0;        // timed exchanges attempted
  size_t failed = 0;
  size_t contained = 0;   // CONTAINED? requests answered
  size_t plans = 0;       // PLAN? requests answered
  size_t comparison = 0;  // of which Section 5 pairs
  int64_t end_ns = 0;
  std::vector<double> rtt_us;
  std::vector<int64_t> done_ns;  // completion time of each rtt_us sample
  std::vector<double> wire_us;  // rtt - server-reported us
  std::string first_error;
};

void Fail(ConnResult* out, const std::string& what) {
  ++out->failed;
  if (out->first_error.empty()) out->first_error = what;
}

/// Checks one reply against the oracle; false on a mismatch or an ERR.
bool CheckReply(const ConnectionPlan& conn, const Request& r,
                const std::string& reply, Reply* head, std::string* why) {
  size_t eol = reply.find('\n');
  std::string first = reply.substr(0, eol);
  switch (r.verb) {
    case Verb::kContained: {
      *head = ParseReplyLine(first);
      bool want = r.expect_yes;
      if (head->kind == (want ? ReplyKind::kYes : ReplyKind::kNo)) return true;
      *why = "wrong verdict (want " + std::string(want ? "YES" : "NO") +
             "): " + first;
      return false;
    }
    case Verb::kRegister:
      *head = ParseReplyLine(first);
      if (head->kind == ReplyKind::kOkCatalog) return true;
      *why = "re-registration failed: " + first;
      return false;
    case Verb::kPlan: {
      if (ParseReplyLine(first).kind != ReplyKind::kOkQuery) {
        *why = "DEFINE failed: " + first;
        return false;
      }
      size_t eol2 = reply.find('\n', eol + 1);
      *head = ParseReplyLine(reply.substr(eol + 1, eol2 - eol - 1));
      const ExpectedPlan& want = conn.plans[r.a];
      if (head->kind != ReplyKind::kOkPlan || head->rules != want.rules) {
        *why = "wrong plan header: " + reply.substr(eol + 1, eol2 - eol - 1);
        return false;
      }
      std::string body =
          RenamePredicate(std::string_view(reply).substr(eol2 + 1), head->dom,
                          "dom");
      if (body == want.plan_text) return true;
      // Same plan up to renaming: compare canonical fingerprints.
      if (PlanFingerprint(body, "q") == want.fingerprint) return true;
      *why = "wrong plan for " + conn.pool[r.a].text;
      return false;
    }
  }
  return false;
}

/// Set-up of one server: start it, connect, register the catalogs, DEFINE
/// every connection's pool, send the warm-up. Returns the seconds it took,
/// or a negative value on failure (with *error set).
double SetUp(const Options& opt, const Workload& w, ServerProcess* server,
             std::vector<std::unique_ptr<Connection>>* conns,
             std::string* error) {
  int64_t start = NowNs();
  if (!server->Start(opt.server, kStartTimeoutMs)) {
    *error = "could not start " + opt.server;
    return -1;
  }
  conns->clear();
  for (size_t c = 0; c < w.connections.size(); ++c) {
    conns->push_back(std::make_unique<Connection>());
    if (!conns->back()->Connect(server->port())) {
      *error = "could not connect";
      return -1;
    }
  }
  std::string reply;
  int64_t rtt = 0;
  auto expect = [&](Connection* conn, const std::string& line,
                    ReplyKind kind) {
    if (!conn->Exchange(line, 1, &reply, &rtt, kExchangeTimeoutMs)) {
      *error = "set-up exchange timed out: " + line.substr(0, 80);
      return false;
    }
    if (ParseReplyLine(reply.substr(0, reply.find('\n'))).kind != kind) {
      *error = "set-up failed: " + line.substr(0, 80) + " -> " + reply;
      return false;
    }
    return true;
  };
  for (const CatalogDef& catalog : w.catalogs) {
    if (!expect((*conns)[0].get(), catalog.Line(), ReplyKind::kOkCatalog)) {
      return -1;
    }
  }
  // The DEFINEs are independent, so they are pipelined: a round trip
  // each would make set-up time mostly scheduling latency.
  for (size_t c = 0; c < w.connections.size(); ++c) {
    const ConnectionPlan& plan = w.connections[c];
    if (!plan.define_pool) continue;
    std::string defines;
    for (const QueryDef& q : plan.pool) {
      defines += "DEFINE " + q.name + " " + q.text + "\n";
    }
    int lines = static_cast<int>(plan.pool.size());
    if (!(*conns)[c]->Pipeline(defines, lines, &reply, kExchangeTimeoutMs)) {
      *error = "set-up DEFINEs timed out";
      return -1;
    }
    size_t pos = 0;
    for (int i = 0; i < lines; ++i) {
      size_t eol = reply.find('\n', pos);
      std::string line = reply.substr(pos, eol - pos);
      if (ParseReplyLine(line).kind != ReplyKind::kOkQuery) {
        *error = "set-up DEFINE failed: " + line;
        return -1;
      }
      pos = eol + 1;
    }
  }
  for (size_t c = 0; c < w.connections.size(); ++c) {
    const ConnectionPlan& plan = w.connections[c];
    for (const Request& r : plan.warmup) {
      Reply head;
      std::string why;
      if (!(*conns)[c]->Exchange(w.Wire(plan, r), 1, &reply, &rtt,
                                 kExchangeTimeoutMs) ||
          !CheckReply(plan, r, reply, &head, &why)) {
        *error = "warm-up failed: " + why;
        return -1;
      }
    }
  }
  return static_cast<double>(NowNs() - start) / 1e9;
}

/// One closed-loop client: sends its stream in order until the stream
/// ends or the deadline passes.
void RunConnection(const Workload& w, const ConnectionPlan& plan,
                   Connection* conn, const std::atomic<int64_t>* deadline,
                   const std::atomic<bool>* go, ConnResult* out) {
  out->rtt_us.reserve(std::min<size_t>(plan.stream.size(), 1 << 20));
  out->done_ns.reserve(std::min<size_t>(plan.stream.size(), 1 << 20));
  while (!go->load()) std::this_thread::yield();
  const int64_t deadline_ns = deadline->load();
  std::string reply;
  for (const Request& r : plan.stream) {
    if (NowNs() >= deadline_ns) break;
    std::string wire = w.Wire(plan, r);
    int lines = w.ReplyLines(plan, r);
    int64_t rtt_ns = 0;
    ++out->sent;
    if (!conn->Exchange(wire, lines, &reply, &rtt_ns, kExchangeTimeoutMs)) {
      // The session is out of step; nothing after this is measurable.
      Fail(out, "no reply within " + std::to_string(kExchangeTimeoutMs) +
                    " ms to: " + wire.substr(0, 80));
      break;
    }
    Reply head;
    std::string why;
    bool ok = CheckReply(plan, r, reply, &head, &why);
    if (!ok) Fail(out, why);
    if (r.verb == Verb::kRegister) continue;
    (r.verb == Verb::kPlan ? out->plans : out->contained) += 1;
    if (r.comparison) ++out->comparison;
    double rtt_us = static_cast<double>(rtt_ns) / 1000.0;
    out->rtt_us.push_back(rtt_us);
    out->done_ns.push_back(NowNs());
    if (head.server_us >= 0) {
      out->wire_us.push_back(rtt_us - static_cast<double>(head.server_us));
    }
  }
  out->end_ns = NowNs();
}

/// Latency percentiles of one window of the timed phase.
struct WindowFigures {
  double p50_us = 0;
  double p90_us = 0;
};

/// Splits the timed phase at `bounds` (ascending, first = start) and
/// returns the figures of every window in which at least two requests
/// completed.
std::vector<WindowFigures> Windows(const std::vector<ConnResult>& results,
                                   const std::vector<int64_t>& bounds) {
  std::vector<std::vector<double>> rtt(bounds.size());
  for (const ConnResult& r : results) {
    for (size_t i = 0; i < r.rtt_us.size(); ++i) {
      size_t k = std::upper_bound(bounds.begin(), bounds.end(), r.done_ns[i]) -
                 bounds.begin();
      if (k < 1 || k >= bounds.size()) continue;
      rtt[k].push_back(r.rtt_us[i]);
    }
  }
  std::vector<WindowFigures> out;
  for (size_t k = 1; k < bounds.size(); ++k) {
    if (rtt[k].size() < 2) continue;
    std::sort(rtt[k].begin(), rtt[k].end());
    WindowFigures f;
    f.p50_us = PercentileSorted(rtt[k], 0.50);
    f.p90_us = PercentileSorted(rtt[k], 0.90);
    out.push_back(f);
  }
  return out;
}

std::map<std::string, double> ScrapeMetrics(int port) {
  std::string response = HttpGet(port, "/metrics", 5000);
  return ParsePrometheus(HttpBody(response));
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<std::pair<std::string, std::pair<double,
                                                                  std::string>>>&
                   metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.c_str(),
                metrics[i].second.first, metrics[i].second.second.c_str());
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_loadgen --server PATH --workload NAME "
               "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--server") {
      opt.server = value;
    } else if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--spans") {
      opt.spans = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opt.server.empty() || opt.workload.empty() ||
      opt.seconds <= 0) {
    return Usage();
  }
  int threads = static_cast<int>(
      std::clamp<long>(sysconf(_SC_NPROCESSORS_ONLN), 1, 4));

  // --- workload and oracle, before any server runs -------------------------
  int64_t t0 = NowNs();
  Workload w;
  std::string error;
  if (!MakeWorkload(opt.workload, opt.seed, threads, &w, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  double oracle_s = static_cast<double>(NowNs() - t0) / 1e9;

  // From here on the load generator and the server it forks share one CPU.
  // Every exchange then hands the CPU from client to server and back
  // instead of waking a second, idle virtual CPU, and only one virtual CPU
  // is busy at a time: on a shared host, both the wake-ups and the time the
  // hypervisor steals from several busy virtual CPUs moved every figure.
  int cpu = PinToOneCpu();
  if (cpu < 0) {
    std::fprintf(stderr, "perfbench: WARNING: could not pin to one CPU; "
                         "figures are not comparable\n");
  }

  // --- set-up, several times; the last server stays up ---------------------
  ServerProcess server;
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (rep > 0) {
      conns.clear();
      server.Stop();
    }
    double s = SetUp(opt, w, &server, &conns, &error);
    if (s < 0) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 1;
    }
    setups.push_back(s);
  }

  // --- the timed phase -----------------------------------------------------
  std::map<std::string, double> before = ScrapeMetrics(server.port());
  ProcUsage usage_before = ReadProcUsage(server.pid());
  CpuTicks steal_before = ReadCpuTicks(cpu);
  std::vector<ConnResult> results(w.connections.size());
  std::atomic<bool> go{false};
  std::atomic<int64_t> deadline{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < w.connections.size(); ++c) {
    clients.emplace_back(RunConnection, std::cref(w),
                         std::cref(w.connections[c]), conns[c].get(),
                         &deadline, &go, &results[c]);
  }
  int64_t start_ns = NowNs();
  const int64_t run_ns = static_cast<int64_t>(opt.seconds * 1e9);
  deadline.store(start_ns + run_ns);
  go.store(true);
  for (std::thread& t : clients) t.join();
  int64_t end_ns = start_ns;
  for (const ConnResult& r : results) end_ns = std::max(end_ns, r.end_ns);
  ProcUsage usage_after = ReadProcUsage(server.pid());
  CpuTicks steal_after = ReadCpuTicks(cpu);
  std::map<std::string, double> after = ScrapeMetrics(server.port());
  conns.clear();
  server.Stop();

  // --- checks and figures ----------------------------------------------------
  uint64_t attempted = 0, failed = 0, contained = 0, plans = 0, comparison = 0;
  std::vector<double> wire;
  std::vector<size_t> sent;
  for (const ConnResult& r : results) {
    attempted += r.sent;
    failed += r.failed;
    contained += r.contained;
    plans += r.plans;
    comparison += r.comparison;
    wire.insert(wire.end(), r.wire_us.begin(), r.wire_us.end());
    sent.push_back(r.sent);
    if (!r.first_error.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", r.first_error.c_str());
    }
  }
  bool correct = failed == 0 && attempted > 0;
  double requests_delta = MetricDelta(before, after, "relcont_requests_total");
  double plans_delta = MetricDelta(before, after, "relcont_plan_requests_total");
  if (after.empty() || requests_delta != static_cast<double>(contained) ||
      plans_delta != static_cast<double>(plans)) {
    std::fprintf(stderr,
                 "perfbench: /metrics disagrees with the client: "
                 "requests %.0f vs %llu sent, plans %.0f vs %llu sent\n",
                 requests_delta, static_cast<unsigned long long>(contained),
                 plans_delta, static_cast<unsigned long long>(plans));
    correct = false;
  }
  uint64_t completed = contained + plans;
  // Equal slices of the timed phase, as many as keep kMinWindowRequests
  // requests in each (up to kWindows).
  int num_windows = static_cast<int>(std::clamp<uint64_t>(
      completed / kMinWindowRequests, 1, kWindows));
  std::vector<int64_t> bounds;
  for (int k = 0; k <= num_windows; ++k) {
    bounds.push_back(start_ns + (end_ns - start_ns) * k / num_windows);
  }
  bounds.back() = end_ns + 1;  // the last completion belongs to the last window
  std::vector<WindowFigures> windows = Windows(results, bounds);
  auto window_median = [&](double WindowFigures::*field) {
    std::vector<double> values;
    for (const WindowFigures& f : windows) values.push_back(f.*field);
    return Median(values);
  };
  double per_req = completed == 0 ? 0 : 1.0 / static_cast<double>(completed);
  double failed_ratio =
      attempted == 0 ? 1 : static_cast<double>(failed) / attempted;

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  auto add = [&](const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  };
  std::fprintf(stderr,
               "perfbench: %s seed=%llu cpu=%d oracle=%.2fs "
               "setup(median)=%.4fs sent=%llu failed_ratio=%.6f "
               "cpu_steal_share(timed phase)=%.4f\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               cpu, oracle_s, Median(setups),
               static_cast<unsigned long long>(attempted), failed_ratio,
               StealShare(steal_before, steal_after));
  if (StealShare(steal_before, steal_after) > kStealWarn) {
    std::fprintf(stderr,
                 "perfbench: WARNING: the hypervisor stole more than %.0f%% "
                 "of CPU %d during the timed phase; the figures are slowed "
                 "by the host, not by the program\n",
                 kStealWarn * 100, cpu);
  }

  if (!opt.trace) {
    add("setup_s", Median(setups), "s");
    add("req_per_s",
        static_cast<double>(completed) /
            (static_cast<double>(end_ns - start_ns) / 1e9),
        "1/s");
    add("latency_p50_us", window_median(&WindowFigures::p50_us), "us");
    add("latency_p90_us", window_median(&WindowFigures::p90_us), "us");
    add("server_cpu_us_per_req",
        (usage_after.cpu_us - usage_before.cpu_us) * per_req, "us");
    add("server_peak_rss_mb", usage_after.peak_rss_kb / 1024.0, "MB");
    add("ok_ratio", 1.0 - failed_ratio, "ratio");
  } else {
    auto delta = [&](const char* name) {
      return MetricDelta(before, after, name);
    };
    auto ratio = [](double num, double den) {
      return den <= 0 ? 0.0 : num / den;
    };
    double per_contained = contained == 0 ? 0 : 1.0 / contained;
    double hits = delta("relcont_cache_hits_total");
    double misses = delta("relcont_cache_misses_total");
    double plan_hits = delta("relcont_plan_cache_hits_total");
    double plan_misses = delta("relcont_plan_cache_misses_total");
    ReplayResult replay = Replay(w, sent, opt.seconds, opt.spans);
    std::fprintf(stderr, "perfbench: replayed %llu requests\n",
                 static_cast<unsigned long long>(replay.requests));
    attempted += replay.requests;
    failed += replay.failed;
    if (replay.failed > 0) {
      std::fprintf(stderr, "perfbench: %llu replayed requests failed\n",
                   static_cast<unsigned long long>(replay.failed));
      correct = false;
    }
    add("obs.wire_us", Median(wire), "us");
    for (const char* name :
         {"obs.render_metrics_us", "service.handle_line_us",
          "service.decide_us", "service.cache_lookup_us"}) {
      add(name, replay.metrics[name], "us");
    }
    add("service.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
    for (const char* name : {"service.telemetry_us", "service.materialize_us"}) {
      add(name, replay.metrics[name], "us");
    }
    add("service.materializations", replay.metrics["service.materializations"],
        "count");
    add("service.register_us", replay.metrics["service.register_us"], "us");
    for (const char* name : {"datalog.parse_us", "datalog.unfold_us"}) {
      add(name, replay.metrics[name], "us");
    }
    add("datalog.unfold_disjuncts", replay.metrics["datalog.unfold_disjuncts"],
        "count");
    for (const char* name :
         {"containment.fingerprint_us", "rewriting.invert_views_us",
          "rewriting.plan_build_us", "relcont.decide_us", "relcont.scan_us",
          "relcont.cegar_us"}) {
      add(name, replay.metrics[name], "us");
    }
    add("relcont.decide_over_parts",
        replay.metrics["relcont.decide_over_parts"], "ratio");
    add("relcont.cegar_proposals",
        delta("relcont_cegar_proposals_total") * per_contained, "count");
    add("relcont.cegar_iterations",
        delta("relcont_cegar_iterations_total") * per_contained, "count");
    add("relcont.cegar_blocking_clauses",
        delta("relcont_cegar_blocking_clauses_total") * per_contained, "count");
    add("planner.plan_cold_us", replay.metrics["planner.plan_cold_us"], "us");
    add("planner.plan_warm_us", replay.metrics["planner.plan_warm_us"], "us");
    add("planner.plan_cache_hit_ratio",
        ratio(plan_hits, plan_hits + plan_misses), "ratio");
    // Per comparison request where the workload has them (cold_pairs),
    // per request otherwise.
    add("constraints.dense_order_propagations",
        ratio(delta("relcont_dense_order_propagations_total"),
              static_cast<double>(comparison > 0 ? comparison : completed)),
        "count");
    add("common.bound_hits", delta("relcont_bound_hits_total"), "count");
    add("trace.span_overhead_ns", replay.metrics["trace.span_overhead_ns"],
        "ns");
    add("trace.spans", replay.metrics["trace.spans"], "count");
  }
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
