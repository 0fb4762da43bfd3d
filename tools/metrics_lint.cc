// metrics_lint — keeps the telemetry docs honest.
//
// The three snapshot renderers walk one series table (obs::SeriesTable),
// so METRICS, /metrics and /statusz agree by construction. What the
// table cannot guarantee is the documentation. This binary checks, against
// docs/OBSERVABILITY.md (argv[1]):
//
//   1. every table row has a row in the "Series glossary" table that
//      names the row's METRICS series and its /metrics series and gives
//      the row's type as its Kind (a histogram row needs one glossary row
//      per `_bucket`/`_sum`/`_count` series), and, in reverse, every
//      glossary row names a series the table emits — an orphan row left
//      behind by a removed or renamed series fails too;
//   2. the /requestz JSON (both the list and the per-id drill-down,
//      rendered from a synthetic fully populated flight recorder)
//      reparses, and every key in it has its own row in one of the
//      flight-recorder schema tables of OBSERVABILITY.md (the
//      chrome_trace subtree is exempt — its keys are Chrome's,
//      documented upstream).
//
// Adding a series without its glossary row fails this binary, and it runs
// as a ctest case, so CI gates on it.
//
// Usage: metrics_lint <path/to/OBSERVABILITY.md>
// Exit: 0 clean, 1 lint findings, 2 usage/IO error.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/exposition.h"

namespace {

/// A flight recorder with every wide-event field populated and one fully
/// retained entry, so both /requestz renderings (list and drill-down)
/// emit every key they are capable of emitting.
void PopulateFlightRecorder(relcont::obs::FlightRecorder* flight) {
  relcont::obs::WideEvent event;
  event.request_id = flight->NextRequestId();
  event.ts_unix_micros = 1700000000000000;
  event.latency_micros = 1234;
  event.catalog_version = 3;
  event.worker_count = 4;
  event.error = 1;
  event.cache_hit = 1;
  event.traced = 1;
  event.bound = 1;
  event.set_verb("contained");
  event.set_regime("section3");
  event.set_catalog("cars");
  event.set_bound_site("linearization_dfs");
  relcont::obs::WideEvent::CopyInto(
      event.phases[0].name, relcont::obs::WideEvent::kPhaseChars, "decide");
  event.phases[0].ns = 900000;
  flight->Record(event);
  flight->Retain(event, "decide 900us\n  regime_section3 880us",
                 "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}");
}

/// Collects every object key in `value`, skipping the `chrome_trace`
/// subtree — its keys belong to the Chrome trace_event schema, documented
/// upstream, not to OBSERVABILITY.md.
void CollectJsonKeys(const relcont::json::Value& value,
                     std::set<std::string>* keys) {
  if (value.is_object()) {
    for (const auto& [key, member] : value.object) {
      keys->insert(key);
      if (key == "chrome_trace") continue;
      CollectJsonKeys(member, keys);
    }
  } else if (value.is_array()) {
    for (const relcont::json::Value& member : value.array) {
      CollectJsonKeys(member, keys);
    }
  }
}

/// The table rows (lines opening with a `code` cell) of the section under
/// `heading`, up to the next heading of the same or a higher level.
std::vector<std::string> SectionRows(const std::string& doc,
                                     const std::string& heading) {
  std::vector<std::string> rows;
  size_t start = doc.find("\n" + heading + "\n");
  if (start == std::string::npos) return rows;
  std::istringstream in(doc.substr(start + heading.size() + 2));
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0 || line.rfind("### ", 0) == 0) break;
    if (line.rfind("| `", 0) == 0) rows.push_back(line);
  }
  return rows;
}

/// The series names a glossary row documents: the code span opening each
/// of its first two cells (METRICS and Prometheus name), labels stripped
/// (`name{...}` -> `name`); a cell without a code span (e.g. "— text-only")
/// contributes nothing.
std::vector<std::string> DocumentedNames(const std::string& row) {
  std::vector<std::string> names;
  size_t cell = 0;
  for (int i = 0; i < 2; ++i) {
    cell = row.find("| ", cell);
    if (cell == std::string::npos) break;
    cell += 2;
    if (row.compare(cell, 1, "`") != 0) continue;
    const size_t end = row.find_first_of("`{", cell + 1);
    if (end == std::string::npos) break;
    names.push_back(row.substr(cell + 1, end - cell - 1));
  }
  return names;
}

/// Whether a cell of glossary `row` names series `name` (spelled `name`,
/// or `name{...}` with its labels).
bool NamesSeries(const std::string& row, const std::string& name) {
  return row.find("| `" + name + "`") != std::string::npos ||
         row.find("| `" + name + "{") != std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: metrics_lint <path/to/OBSERVABILITY.md>\n");
    return 2;
  }
  std::ifstream doc_file(argv[1]);
  if (!doc_file) {
    std::fprintf(stderr, "metrics_lint: cannot read %s\n", argv[1]);
    return 2;
  }
  std::stringstream doc_stream;
  doc_stream << doc_file.rdbuf();
  const std::string doc = doc_stream.str();

  int findings = 0;
  auto fail = [&findings](const std::string& message) {
    std::fprintf(stderr, "metrics_lint: %s\n", message.c_str());
    ++findings;
  };

  // 1. Every table row has a glossary row naming both of its names (a
  //    METRICS name never starts with relcont_, so the cells cannot be
  //    confused) and its kind.
  const std::vector<std::string> glossary =
      SectionRows(doc, "### Series glossary");
  size_t series = 0;
  std::set<std::string> emitted;
  for (const relcont::obs::SeriesRow& row : relcont::obs::SeriesTable()) {
    if (row.text_name == nullptr && row.prom_name == nullptr) continue;
    const bool histogram = std::string(row.type) == "histogram";
    for (const char* suffix :
         histogram ? std::vector<const char*>{"_bucket", "_sum", "_count"}
                   : std::vector<const char*>{""}) {
      ++series;
      const std::string text_name =
          row.text_name != nullptr ? row.text_name + std::string(suffix) : "";
      const std::string prom_name =
          row.prom_name != nullptr ? row.prom_name + std::string(suffix) : "";
      emitted.insert(text_name);
      emitted.insert(prom_name);
      bool documented = false;
      for (const std::string& entry : glossary) {
        documented |= (text_name.empty() || NamesSeries(entry, text_name)) &&
                      (prom_name.empty() || NamesSeries(entry, prom_name)) &&
                      entry.find(std::string("| ") + row.type + " |") !=
                          std::string::npos;
      }
      if (!documented) {
        fail("series '" + text_name + "' / '" + prom_name + "' (" +
             row.type + ") has no glossary row in " + std::string(argv[1]));
      }
    }
  }

  //    And in reverse: a glossary row that names no emitted series.
  for (const std::string& entry : glossary) {
    const std::vector<std::string> names = DocumentedNames(entry);
    if (std::none_of(names.begin(), names.end(), [&](const std::string& n) {
          return !n.empty() && emitted.count(n) > 0;
        })) {
      fail("glossary row documents no series: " + entry);
    }
  }

  // 2. /requestz schema: render both shapes (list and drill-down) from a
  //    fully populated recorder, reparse, and require every JSON key to
  //    have its own row (first cell `key`) in a schema table of the
  //    flight-recorder section. A wide-event field added to flight.cc
  //    without documenting it fails here.
  const std::vector<std::string> schema =
      SectionRows(doc, "### Flight recorder (`src/obs/flight.h`)");
  relcont::obs::FlightRecorder flight;
  PopulateFlightRecorder(&flight);
  const std::string requestz_list =
      relcont::obs::RenderRequestzListJson(flight);
  auto retained = flight.FindRetained(1);
  if (!retained.has_value()) {
    fail("synthetic flight recorder lost its retained entry");
  }
  const std::string requestz_event =
      retained.has_value()
          ? relcont::obs::RenderRequestzEventJson(*retained)
          : std::string();
  for (const auto& [label, text_json] :
       {std::pair<const char*, const std::string&>{"/requestz",
                                                   requestz_list},
        std::pair<const char*, const std::string&>{"/requestz?id=",
                                                   requestz_event}}) {
    if (text_json.empty()) continue;
    auto doc_parsed = relcont::json::Parse(text_json);
    if (!doc_parsed.ok()) {
      fail(std::string(label) + " JSON does not reparse: " +
           doc_parsed.status().ToString());
      continue;
    }
    std::set<std::string> keys;
    CollectJsonKeys(*doc_parsed, &keys);
    for (const std::string& key : keys) {
      const bool documented =
          std::any_of(schema.begin(), schema.end(), [&](const auto& row) {
            return row.rfind("| `" + key + "` |", 0) == 0;
          });
      if (!documented) {
        fail(std::string(label) + " key '" + key +
             "' has no schema table row in " + std::string(argv[1]));
      }
    }
  }

  if (findings > 0) {
    std::fprintf(stderr, "metrics_lint: %d finding(s)\n", findings);
    return 1;
  }
  std::printf("metrics_lint: %zu series and the /requestz keys, all "
              "documented\n",
              series);
  return 0;
}
