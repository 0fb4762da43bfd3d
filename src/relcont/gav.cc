#include "relcont/gav.h"

#include "datalog/parser.h"
#include "eval/evaluator.h"
#include "rewriting/inverse_rules.h"

namespace relcont {

Status GavSchema::Validate() const {
  RELCONT_RETURN_NOT_OK(definitions_.CheckSafe());
  if (definitions_.IsRecursive()) {
    return Status::InvalidArgument("GAV definitions must be nonrecursive");
  }
  for (const Rule& r : definitions_.rules) {
    if (!r.comparisons.empty()) {
      return Status::Unsupported(
          "comparisons in GAV definitions are not supported");
    }
  }
  return Status::OK();
}

Result<UnionQuery> GavSchema::Compose(const Program& query, SymbolId goal,
                                      Interner* interner,
                                      const UnfoldOptions& options) const {
  RELCONT_RETURN_NOT_OK(Validate());
  RELCONT_RETURN_NOT_OK(query.CheckSafe());
  std::set<SymbolId> sources = SourcePredicates();
  for (const Rule& r : query.rules) {
    for (const Atom& a : r.body) {
      if (sources.count(a.predicate) > 0) {
        return Status::InvalidArgument(
            "query must be over the mediated schema, not the sources");
      }
    }
  }
  Program combined = query;
  for (const Rule& r : definitions_.rules) combined.rules.push_back(r);
  if (combined.IsRecursive()) {
    return Status::InvalidArgument(
        "query predicates collide with GAV definitions");
  }
  // A query subgoal over a mediated relation with no definition can never
  // produce answers; the plan unfold drops those disjuncts.
  return PlanToUnion(combined, goal, sources, interner, options);
}

Result<GavSchema> ParseGavSchema(std::string_view text, Interner* interner) {
  RELCONT_ASSIGN_OR_RETURN(Program program, ParseProgram(text, interner));
  GavSchema schema(std::move(program));
  RELCONT_RETURN_NOT_OK(schema.Validate());
  return schema;
}

Result<RelativeContainmentResult> GavRelativelyContained(
    const GoalQuery& q1, const GoalQuery& q2, const GavSchema& schema,
    Interner* interner, const UnfoldOptions& options) {
  RelativeContainmentResult out;
  RELCONT_ASSIGN_OR_RETURN(
      out.plan1, schema.Compose(q1.program, q1.goal, interner, options));
  RELCONT_ASSIGN_OR_RETURN(
      out.plan2, schema.Compose(q2.program, q2.goal, interner, options));
  return ScanPlans(std::move(out), /*parallel_workers=*/1);
}

Result<std::vector<Tuple>> GavCertainAnswers(const Program& query,
                                             SymbolId goal,
                                             const GavSchema& schema,
                                             const Database& instance,
                                             Interner* interner) {
  RELCONT_ASSIGN_OR_RETURN(UnionQuery composed,
                           schema.Compose(query, goal, interner));
  Program program;
  for (Rule& d : composed.disjuncts) program.rules.push_back(std::move(d));
  if (program.rules.empty()) return std::vector<Tuple>{};
  return EvaluateGoal(program, goal, instance);
}

}  // namespace relcont
