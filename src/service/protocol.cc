#include "service/protocol.h"

#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <sstream>

#include "common/json.h"
#include "datalog/parser.h"

namespace relcont {

namespace {

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> Tokenize(const std::string& s) {
  std::istringstream in(s);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

std::string JoinFrom(const std::vector<std::string>& tokens, size_t begin,
                     size_t end) {
  std::string out;
  for (size_t i = begin; i < end; ++i) {
    if (!out.empty()) out += ' ';
    out += tokens[i];
  }
  return out;
}

/// Pops trailing `key=value` budget options off `tokens` and applies them
/// to `options`. Recognized keys: timeout_ms (per-request deadline),
/// budget (max decision steps), workers (parallel scan width), strategy
/// (section3 engine: cegar, scan, or auto). Returns a newline-terminated
/// "ERR ..." line on a malformed option, "" on success.
std::string ConsumeBudgetOptions(std::vector<std::string>* tokens,
                                 DecideOptions* options) {
  while (!tokens->empty() &&
         tokens->back().find('=') != std::string::npos) {
    const std::string& token = tokens->back();
    size_t eq = token.find('=');
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (key == "strategy") {
      // The one string-valued option; handled before the integer parse.
      std::optional<ContainmentStrategy> strategy =
          ParseContainmentStrategy(value);
      if (!strategy.has_value()) {
        return "ERR InvalidArgument: option 'strategy' must be cegar, "
               "scan, or auto, got '" + value + "'\n";
      }
      options->strategy = *strategy;
      tokens->pop_back();
      continue;
    }
    char* end = nullptr;
    long long parsed = std::strtoll(value.c_str(), &end, 10);
    if (value.empty() || end == nullptr || *end != '\0' || parsed <= 0) {
      return "ERR InvalidArgument: option '" + key +
             "' needs a positive integer, got '" + value + "'\n";
    }
    if (key == "timeout_ms") {
      options->timeout_ms = parsed;
    } else if (key == "budget") {
      options->max_steps = parsed;
    } else if (key == "workers") {
      options->parallel_workers = static_cast<int>(parsed);
    } else {
      return "ERR InvalidArgument: unknown option '" + key +
             "' — try timeout_ms=, budget=, workers=, or strategy=\n";
    }
    tokens->pop_back();
  }
  return "";
}

/// The reply to a request the service answered with a non-OK status. It
/// carries the request id, so a client log line correlates with the
/// server-side retained trace (REQUESTZ <id>); protocol-level validation
/// errors (no id was minted) stay plain.
std::string ErrorLine(uint64_t request_id, const Status& status) {
  return "ERR [id=" + std::to_string(request_id) + "] " + status.ToString() +
         "\n";
}

/// Appends ` HIT|MISS <latency>us id=<id>`, then ` witness: <text>` when
/// there is one: the tail every verdict and plan header line shares.
template <typename Response>
void AppendServed(const Response& response, const std::string& witness,
                  std::string* out) {
  *out += response.cache_hit ? " HIT " : " MISS ";
  *out += std::to_string(response.latency_micros);
  *out += "us id=";
  *out += std::to_string(response.request_id);
  if (!witness.empty()) {
    *out += " witness: ";
    *out += witness;
  }
}

}  // namespace

ServerSession::ServerSession(ContainmentService* service, int batch_threads)
    : service_(service), batch_threads_(batch_threads) {}

std::string ServerSession::HandleLine(const std::string& raw_line) {
  std::string line = Trim(raw_line);
  if (line.empty() || line[0] == '%') return "";
  std::istringstream in(line);
  std::string command;
  in >> command;
  std::string rest;
  std::getline(in, rest);
  rest = Trim(rest);
  if (command == "CATALOG") return HandleCatalog(rest);
  if (command == "CATALOG?") return HandleCatalogQuery(rest);
  if (command == "DEFINE") return HandleDefine(rest);
  if (command == "CONTAINED?") return HandleContained(rest);
  if (command == "PLAN?") {
    return HandlePlan(rest, /*collect_trace=*/false, /*trace_json=*/false);
  }
  if (command == "REWRITE?") {
    return HandleRewrite(rest, /*collect_trace=*/false,
                         /*trace_json=*/false);
  }
  if (command == "EXPLAIN") return HandleExplain(rest);
  if (command == "BATCH") return HandleBatch(rest);
  if (command == "CATALOGS") {
    std::string out;
    for (const std::string& name : service_->catalogs().Names()) {
      auto spec = service_->catalogs().Find(name);
      if (spec == nullptr) continue;
      out += "catalog " + name + " v" + std::to_string(spec->version) + "\n";
    }
    return out.empty() ? "OK no catalogs\n" : out;
  }
  if (command == "METRICS") {
    return obs::RenderMetricsText(service_->Snapshot());
  }
  if (command == "STATUSZ") {
    // The same MetricsSnapshot METRICS and /metrics render, as one JSON
    // object — so the protocol verb and GET /statusz cannot drift.
    return obs::RenderStatuszJson(service_->Snapshot());
  }
  if (command == "REQUESTZ") return HandleRequestz(rest);
  if (command == "HELP") {
    return "CATALOG <name> VIEW <rule> [VIEW <rule>]... [PATTERN <src> "
           "<adornment>]...\n"
           "CATALOG? [<name>]\n"
           "DEFINE <name> <rule> [<rule>]...\n"
           "CONTAINED? <q1> <q2> @<catalog> [timeout_ms=N] [budget=N] "
           "[workers=N] [strategy=cegar|scan|auto]\n"
           "PLAN? <q> @<catalog> [timeout_ms=N] [budget=N] [workers=N]\n"
           "REWRITE? <q1> <q2> @<catalog> [timeout_ms=N] [budget=N] "
           "[workers=N] [strategy=cegar|scan|auto]\n"
           "EXPLAIN [JSON] [PLAN?|REWRITE?] <args as above>\n"
           "BATCH BEGIN ... BATCH END\n"
           "REQUESTZ [<id>]\n"
           "CATALOGS | METRICS | STATUSZ | HELP\n"
           "  timeout_ms: per-request deadline; budget: max decision "
           "steps; workers: parallel scan width;\n"
           "  strategy: section3 engine (default auto — CEGAR search on "
           "wide plans, scan otherwise).\n"
           "  A request past its bound answers ERR BoundReached (not a "
           "verdict).\n";
  }
  // A distinct error shape (and counter) so clients can tell a typo'd verb
  // from a malformed request to a known verb.
  service_->metrics().RecordUnknownVerb();
  return "ERR unknown-verb '" + command + "' — try HELP\n";
}

std::string ServerSession::HandleCatalog(const std::string& rest) {
  std::vector<std::string> tokens = Tokenize(rest);
  if (tokens.empty()) {
    return "ERR InvalidArgument: CATALOG needs a name\n";
  }
  const std::string& name = tokens[0];
  std::string views_text;
  int num_views = 0;
  std::vector<std::pair<std::string, std::string>> patterns;
  size_t i = 1;
  while (i < tokens.size()) {
    if (tokens[i] == "VIEW") {
      size_t end = i + 1;
      while (end < tokens.size() && tokens[end] != "VIEW" &&
             tokens[end] != "PATTERN") {
        ++end;
      }
      if (end == i + 1) {
        return "ERR InvalidArgument: VIEW needs a rule\n";
      }
      views_text += JoinFrom(tokens, i + 1, end);
      views_text += '\n';
      ++num_views;
      i = end;
    } else if (tokens[i] == "PATTERN") {
      if (i + 2 >= tokens.size()) {
        return "ERR InvalidArgument: PATTERN needs <source> <adornment>\n";
      }
      patterns.emplace_back(tokens[i + 1], tokens[i + 2]);
      i += 3;
    } else {
      return "ERR InvalidArgument: expected VIEW or PATTERN, got '" +
             tokens[i] + "'\n";
    }
  }
  if (num_views == 0) {
    return "ERR InvalidArgument: a catalog needs at least one VIEW\n";
  }
  size_t num_patterns = patterns.size();
  Result<int64_t> version = service_->catalogs().Register(
      name, std::move(views_text), std::move(patterns));
  if (!version.ok()) {
    return "ERR " + version.status().ToString() + "\n";
  }
  return "OK catalog " + name + " v" + std::to_string(*version) +
         " views=" + std::to_string(num_views) +
         " patterns=" + std::to_string(num_patterns) + "\n";
}

std::string ServerSession::HandleDefine(const std::string& rest) {
  std::vector<std::string> tokens = Tokenize(rest);
  if (tokens.size() < 2) {
    return "ERR InvalidArgument: DEFINE needs <name> <rule>\n";
  }
  const std::string& name = tokens[0];
  std::string text = JoinFrom(tokens, 1, tokens.size());
  // Validate now so a bad DEFINE fails loudly instead of at request time.
  Result<Program> parsed = ParseProgram(text, ctx_.interner());
  if (!parsed.ok()) {
    return "ERR " + parsed.status().ToString() + "\n";
  }
  if (parsed->rules.empty()) {
    return "ERR InvalidArgument: DEFINE needs at least one rule\n";
  }
  queries_[name] = std::move(text);
  return "OK query " + name +
         " rules=" + std::to_string(parsed->rules.size()) + "\n";
}

std::string ServerSession::HandleContained(const std::string& rest) {
  DecisionRequest request;
  std::string error = ParseQueryArgs(
      rest, "CONTAINED? <q1> <q2> @<catalog>",
      {&request.q1_text, &request.q2_text}, &request.catalog,
      &request.options);
  if (!error.empty()) return error;
  if (in_batch_) {
    batch_.push_back(std::move(request));
    return "QUEUED " + std::to_string(batch_.size() - 1) + "\n";
  }
  DecisionResponse response = service_->Decide(request, &ctx_);
  Observe(request, response);
  return RenderResponse(response);
}

std::string ServerSession::ParseQueryArgs(
    const std::string& rest, const char* usage,
    std::initializer_list<std::string*> texts, std::string* catalog,
    DecideOptions* options) const {
  std::vector<std::string> tokens = Tokenize(rest);
  std::string error = ConsumeBudgetOptions(&tokens, options);
  if (!error.empty()) return error;
  const size_t n = texts.size();
  if (tokens.size() != n + 1 || tokens[n].size() < 2 || tokens[n][0] != '@') {
    return std::string("ERR InvalidArgument: expected ") + usage +
           " [timeout_ms=N] [budget=N] [workers=N]\n";
  }
  for (size_t i = 0; i < n; ++i) {
    auto query = queries_.find(tokens[i]);
    if (query == queries_.end()) {
      return "ERR InvalidArgument: unknown query '" + tokens[i] +
             "' — DEFINE it first\n";
    }
    *texts.begin()[i] = query->second;
  }
  *catalog = tokens[n].substr(1);
  return "";
}

void ServerSession::AppendTrace(const trace::TraceContext* trace, bool json,
                                std::string* out) {
  if (trace == nullptr) return;
  if (trace->spans().empty() && !trace::kCompiledIn) {
    *out += "(trace hooks compiled out: rebuild with -DRELCONT_TRACE=ON)\n";
    return;
  }
  if (json) {
    *out += trace->ToChromeJson();
    *out += '\n';
  } else {
    *out += trace->ToText();
  }
}

std::string ServerSession::HandlePlan(const std::string& rest,
                                      bool collect_trace, bool trace_json) {
  if (in_batch_) {
    return "ERR InvalidArgument: PLAN? is not allowed inside a batch\n";
  }
  PlanRequest request;
  std::string error =
      ParseQueryArgs(rest, "PLAN? <q> @<catalog>", {&request.query_text},
                     &request.catalog, &request.options);
  if (!error.empty()) return error;
  // EXPLAIN semantics: bypass the cache so there is a construction to
  // trace.
  request.collect_trace = collect_trace;
  request.bypass_cache = collect_trace;
  PlanResponse response = service_->planner().Plan(request, &planner_ctx_);
  if (!response.status.ok()) {
    return ErrorLine(response.request_id, response.status);
  }
  std::string out = "OK plan catalog=" + request.catalog + " v" +
                    std::to_string(response.catalog_version) +
                    " kind=" + (response.recursive ? "recursive" : "ucq") +
                    " rules=" + std::to_string(response.num_rules);
  if (!response.dom_predicate.empty()) {
    out += " dom=" + response.dom_predicate;
  }
  AppendServed(response, "", &out);
  out += '\n';
  out += response.plan_text;
  if (collect_trace) AppendTrace(response.trace.get(), trace_json, &out);
  return out;
}

std::string ServerSession::HandleRewrite(const std::string& rest,
                                         bool collect_trace,
                                         bool trace_json) {
  if (in_batch_) {
    return "ERR InvalidArgument: REWRITE? is not allowed inside a batch\n";
  }
  RewriteRequest request;
  std::string error = ParseQueryArgs(
      rest, "REWRITE? <q1> <q2> @<catalog>",
      {&request.q1_text, &request.q2_text}, &request.catalog,
      &request.options);
  if (!error.empty()) return error;
  request.collect_trace = collect_trace;
  request.bypass_cache = collect_trace;
  RewriteResponse response =
      service_->planner().Rewrite(request, &planner_ctx_);
  if (!response.status.ok()) {
    return ErrorLine(response.request_id, response.status);
  }
  std::string out = response.contained ? "YES plan" : "NO plan";
  AppendServed(response, response.witness_text, &out);
  out += '\n';
  if (collect_trace) AppendTrace(response.trace.get(), trace_json, &out);
  return out;
}

std::string ServerSession::HandleRequestz(const std::string& rest) {
  if (in_batch_) {
    return "ERR InvalidArgument: REQUESTZ is not allowed inside a batch\n";
  }
  // Introspection, like METRICS: mints no id and records no wide event, so
  // REQUESTZ and GET /requestz render byte-identical documents.
  std::vector<std::string> tokens = Tokenize(rest);
  if (tokens.empty()) {
    return obs::RenderRequestzListJson(service_->metrics().flight());
  }
  char* end = nullptr;
  unsigned long long id = std::strtoull(tokens[0].c_str(), &end, 10);
  if (tokens.size() > 1 || end == nullptr || *end != '\0' || id == 0) {
    return "ERR InvalidArgument: expected REQUESTZ [<id>]\n";
  }
  std::optional<obs::FlightRecorder::Retained> entry =
      service_->metrics().flight().FindRetained(id);
  if (!entry.has_value()) {
    return "ERR InvalidArgument: request id " + std::to_string(id) +
           " not retained\n";
  }
  return obs::RenderRequestzEventJson(*entry);
}

std::string ServerSession::HandleCatalogQuery(const std::string& rest) {
  std::vector<std::string> tokens = Tokenize(rest);
  if (tokens.size() > 1) {
    return "ERR InvalidArgument: expected CATALOG? [<name>]\n";
  }
  std::vector<std::string> names;
  if (tokens.empty()) {
    names = service_->catalogs().Names();
  } else {
    names.push_back(tokens[0]);
  }
  std::string out = "{\"catalogs\":[";
  bool first = true;
  for (const std::string& name : names) {
    auto spec = service_->catalogs().Find(name);
    if (spec == nullptr) {
      if (!tokens.empty()) {
        return "ERR InvalidArgument: unknown catalog '" + name + "'\n";
      }
      continue;  // raced with a concurrent removal of a listed name
    }
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    json::AppendEscaped(spec->name, &out);
    out += ",\"version\":" + std::to_string(spec->version);
    out += ",\"views\":" + std::to_string(spec->num_views);
    out += ",\"patterns\":[";
    for (size_t i = 0; i < spec->patterns.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"source\":";
      json::AppendEscaped(spec->patterns[i].first, &out);
      out += ",\"adornment\":";
      json::AppendEscaped(spec->patterns[i].second, &out);
      out += '}';
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

std::string ServerSession::HandleExplain(const std::string& rest) {
  if (in_batch_) {
    return "ERR InvalidArgument: EXPLAIN is not allowed inside a batch\n";
  }
  std::vector<std::string> tokens = Tokenize(rest);
  bool json = !tokens.empty() && tokens[0] == "JSON";
  if (json) tokens.erase(tokens.begin());
  if (!tokens.empty() && tokens[0] == "PLAN?") {
    return HandlePlan(JoinFrom(tokens, 1, tokens.size()),
                      /*collect_trace=*/true, json);
  }
  if (!tokens.empty() && tokens[0] == "REWRITE?") {
    return HandleRewrite(JoinFrom(tokens, 1, tokens.size()),
                         /*collect_trace=*/true, json);
  }
  DecisionRequest request;
  std::string error = ParseQueryArgs(
      JoinFrom(tokens, 0, tokens.size()), "EXPLAIN [JSON] <q1> <q2> @<catalog>",
      {&request.q1_text, &request.q2_text}, &request.catalog,
      &request.options);
  if (!error.empty()) return error;
  // Bypass the cache so there is an actual decision to trace — a cache hit
  // would explain nothing.
  request.bypass_cache = true;
  request.collect_trace = true;
  DecisionResponse response = service_->Decide(request, &ctx_);
  Observe(request, response);
  std::string out = RenderResponse(response);
  if (response.status.ok()) AppendTrace(response.trace.get(), json, &out);
  return out;
}

std::string ServerSession::HandleBatch(const std::string& rest) {
  if (rest == "BEGIN") {
    if (in_batch_) return "ERR InvalidArgument: already in a batch\n";
    in_batch_ = true;
    batch_.clear();
    return "OK batch begin\n";
  }
  if (rest == "END") {
    if (!in_batch_) return "ERR InvalidArgument: no batch in progress\n";
    in_batch_ = false;
    std::vector<DecisionResponse> responses =
        service_->ExecuteBatch(batch_, batch_threads_);
    std::string out =
        "OK batch " + std::to_string(responses.size()) + "\n";
    for (size_t i = 0; i < responses.size(); ++i) {
      Observe(batch_[i], responses[i]);
      out += "[" + std::to_string(i) + "] " + RenderResponse(responses[i]);
    }
    batch_.clear();
    return out;
  }
  return "ERR InvalidArgument: expected BATCH BEGIN or BATCH END\n";
}

std::string ServerSession::RenderResponse(
    const DecisionResponse& response) const {
  if (!response.status.ok()) {
    return ErrorLine(response.request_id, response.status);
  }
  std::string out = response.contained ? "YES " : "NO ";
  out += RegimeName(response.regime);
  AppendServed(response, response.witness_text, &out);
  out += '\n';
  return out;
}

}  // namespace relcont
