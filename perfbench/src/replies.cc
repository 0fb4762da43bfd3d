#include "replies.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace perfbench {

namespace {

std::vector<std::string_view> Tokens(std::string_view line) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) out.push_back(line.substr(start, i - start));
  }
  return out;
}

bool AllDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

uint64_t ToU64(std::string_view s) {
  return std::strtoull(std::string(s).c_str(), nullptr, 10);
}

}  // namespace

int64_t ExtractMicros(std::string_view line) {
  for (std::string_view tok : Tokens(line)) {
    if (tok == "witness:") break;  // the witness is datalog, not a latency
    if (tok.size() > 2 && tok.substr(tok.size() - 2) == "us" &&
        AllDigits(tok.substr(0, tok.size() - 2))) {
      return static_cast<int64_t>(ToU64(tok.substr(0, tok.size() - 2)));
    }
  }
  return -1;
}

Reply ParseReplyLine(std::string_view line) {
  Reply out;
  std::vector<std::string_view> toks = Tokens(line);
  if (toks.empty()) return out;
  std::string_view head = toks[0];
  if (head == "YES" || head == "NO") {
    out.kind = head == "YES" ? ReplyKind::kYes : ReplyKind::kNo;
  } else if (head == "ERR") {
    out.kind = ReplyKind::kErr;
    if (toks.size() > 1 && toks[1].substr(0, 4) == "[id=" &&
        toks[1].back() == ']') {
      out.request_id = ToU64(toks[1].substr(4, toks[1].size() - 5));
    }
    return out;
  } else if (head == "OK" && toks.size() > 1) {
    if (toks[1] == "plan") out.kind = ReplyKind::kOkPlan;
    if (toks[1] == "query") out.kind = ReplyKind::kOkQuery;
    if (toks[1] == "catalog") out.kind = ReplyKind::kOkCatalog;
  }
  for (std::string_view tok : toks) {
    if (tok == "witness:") break;
    if (tok == "HIT") out.cache_hit = true;
    if (tok.substr(0, 3) == "id=" && AllDigits(tok.substr(3))) {
      out.request_id = ToU64(tok.substr(3));
    }
    if (tok.substr(0, 4) == "dom=") out.dom = std::string(tok.substr(4));
    if (tok.substr(0, 6) == "rules=" && AllDigits(tok.substr(6))) {
      out.rules = static_cast<int>(ToU64(tok.substr(6)));
    }
  }
  out.server_us = ExtractMicros(line);
  return out;
}

std::string RenamePredicate(std::string_view text, std::string_view from,
                            std::string_view to) {
  auto ident = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
  };
  std::string out;
  out.reserve(text.size());
  size_t pos = 0;
  while (pos < text.size()) {
    size_t at = from.empty() ? std::string_view::npos : text.find(from, pos);
    if (at == std::string_view::npos) break;
    size_t end = at + from.size();
    bool whole = (at == 0 || !ident(text[at - 1])) && end < text.size() &&
                 text[end] == '(';
    out.append(text.substr(pos, at - pos));
    out.append(whole ? to : from);
    pos = end;
  }
  out.append(text.substr(pos));
  return out;
}

double PercentileSorted(const std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  if (rank == 0) rank = 1;
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::map<std::string, double> ParsePrometheus(std::string_view text) {
  std::map<std::string, double> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line[0] == '#') continue;
    // The value follows the last space; label values may contain spaces,
    // but never after the closing brace.
    size_t brace = line.rfind('}');
    size_t space = line.find(' ', brace == std::string_view::npos ? 0 : brace);
    if (space == std::string_view::npos) continue;
    std::string value(line.substr(space + 1));
    char* end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str()) continue;
    out[std::string(line.substr(0, space))] = v;
  }
  return out;
}

namespace {

double SumSeries(const std::map<std::string, double>& series,
                 std::string_view name) {
  double sum = 0;
  for (auto it = series.lower_bound(std::string(name)); it != series.end();
       ++it) {
    std::string_view key = it->first;
    if (key.substr(0, name.size()) != name) break;
    if (key.size() == name.size() || key[name.size()] == '{') {
      sum += it->second;
    }
  }
  return sum;
}

}  // namespace

double MetricDelta(const std::map<std::string, double>& before,
                   const std::map<std::string, double>& after,
                   std::string_view name) {
  return SumSeries(after, name) - SumSeries(before, name);
}

std::string_view HttpBody(std::string_view response) {
  size_t at = response.find("\r\n\r\n");
  if (at != std::string_view::npos) return response.substr(at + 4);
  at = response.find("\n\n");
  if (at != std::string_view::npos) return response.substr(at + 2);
  return {};
}

}  // namespace perfbench
