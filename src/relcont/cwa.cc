#include "relcont/cwa.h"

#include <algorithm>
#include <functional>

namespace relcont {

Result<std::optional<CwaRefutation>> RefuteCwaContainment(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    Interner* interner, const CwaRefuterOptions& options) {
  // Mark every view complete.
  std::vector<ViewDefinition> defs = views.views();
  for (ViewDefinition& d : defs) d.complete = true;
  ViewSet complete_views(std::move(defs));

  // Domain: query/view constants plus fresh symbols.
  std::vector<Value> domain;
  for (const Value& v : views.Constants()) AddToDomain(&domain, v);
  for (const Value& v : q1.program.Constants()) AddToDomain(&domain, v);
  for (const Value& v : q2.program.Constants()) AddToDomain(&domain, v);
  for (int i = 0; i < options.domain_size; ++i) {
    AddToDomain(&domain, Value::Symbol(interner->Fresh("_cw")));
  }

  std::vector<std::pair<SymbolId, int>> sources;
  for (const ViewDefinition& v : complete_views.views()) {
    sources.emplace_back(v.source_predicate(), v.rule.head.arity());
  }
  std::vector<Atom> potential = AllFacts(sources, domain);

  // Enumerate instances with at most max_instance_facts facts.
  std::vector<int> chosen;
  std::optional<CwaRefutation> found;
  // Recursive combination enumeration with early exit.
  std::function<Result<bool>(int)> search =
      [&](int start) -> Result<bool> {
    // Test the current instance (including the empty one once).
    Database instance;
    for (int idx : chosen) instance.Add(potential[idx]);
    Result<std::vector<Tuple>> c1 = BruteForceCertainAnswers(
        q1.program, q1.goal, complete_views, instance, interner,
        options.brute_force);
    if (c1.ok()) {
      Result<std::vector<Tuple>> c2 = BruteForceCertainAnswers(
          q2.program, q2.goal, complete_views, instance, interner,
          options.brute_force);
      if (c2.ok()) {
        for (const Tuple& t : *c1) {
          if (std::find(c2->begin(), c2->end(), t) == c2->end()) {
            found = CwaRefutation{instance, t};
            return true;
          }
        }
      } else if (c2.status().code() == StatusCode::kBoundReached) {
        return c2.status();
      }
    } else if (c1.status().code() == StatusCode::kBoundReached) {
      return c1.status();
    }
    // (kInvalidArgument means the instance is inconsistent under CWA —
    // skip it and keep searching.)
    if (static_cast<int>(chosen.size()) >= options.max_instance_facts) {
      return false;
    }
    for (int i = start; i < static_cast<int>(potential.size()); ++i) {
      chosen.push_back(i);
      RELCONT_ASSIGN_OR_RETURN(bool done, search(i + 1));
      chosen.pop_back();
      if (done) return true;
    }
    return false;
  };
  RELCONT_ASSIGN_OR_RETURN(bool done, search(0));
  (void)done;
  return found;
}

}  // namespace relcont
