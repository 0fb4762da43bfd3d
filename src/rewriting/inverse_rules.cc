#include "rewriting/inverse_rules.h"

#include <algorithm>
#include <unordered_set>

#include "datalog/substitution.h"
#include "trace/trace.h"

namespace relcont {

Result<Program> InvertViews(const ViewSet& views, Interner* interner) {
  RELCONT_RETURN_NOT_OK(views.Validate());
  Program out;
  for (const ViewDefinition& view : views.views()) {
    const Rule& rule = view.rule;
    // Distinguished (head) variables in order, for Skolem arguments.
    std::vector<SymbolId> head_vars = rule.HeadVariables();
    std::vector<Term> skolem_args;
    skolem_args.reserve(head_vars.size());
    for (SymbolId v : head_vars) skolem_args.push_back(Term::Var(v));
    std::unordered_set<SymbolId> head_set(head_vars.begin(), head_vars.end());

    // sigma: existential variable -> Skolem term over the head variables.
    Substitution sigma;
    for (SymbolId v : rule.BodyVariables()) {
      if (head_set.count(v) > 0) continue;
      std::string name = "f_" + interner->NameOf(view.source_predicate()) +
                         "_" + interner->NameOf(v);
      sigma.Bind(v, Term::Function(interner->Intern(name), skolem_args));
    }

    for (const Atom& subgoal : rule.body) {
      Rule inverse;
      inverse.head = sigma.Apply(subgoal);
      inverse.body.push_back(rule.head);
      out.rules.push_back(std::move(inverse));
      RELCONT_TRACE_COUNT(kPlanRules, 1);
    }
  }
  return out;
}

Result<InverseRuleIndex> InverseRuleIndex::Build(const ViewSet& views,
                                                 Interner* interner) {
  RELCONT_TRACE_SPAN("plan_inverse_rules");
  RELCONT_ASSIGN_OR_RETURN(Program inverse, InvertViews(views, interner));
  InverseRuleIndex out;
  out.sources_ = views.SourcePredicates();
  out.SetRules(std::move(inverse.rules));
  return out;
}

void InverseRuleIndex::SetRules(std::vector<Rule> rules) {
  std::stable_sort(rules.begin(), rules.end(),
                   [](const Rule& a, const Rule& b) {
                     return a.head.predicate < b.head.predicate;
                   });
  rules_ = std::move(rules);
  ranges_.clear();
  for (uint32_t i = 0; i < rules_.size(); ++i) {
    ++ranges_.try_emplace(rules_[i].head.predicate, i, 0).first->second.second;
  }
}

std::span<const Rule> InverseRuleIndex::RulesFor(SymbolId pred) const {
  auto it = ranges_.find(pred);
  if (it == ranges_.end()) return {};
  return {rules_.data() + it->second.first, it->second.second};
}

InverseRuleIndex InverseRuleIndex::Without(SymbolId source) const {
  InverseRuleIndex out;
  out.sources_ = sources_;
  out.sources_.erase(source);
  std::vector<Rule> kept;
  for (const Rule& r : rules_) {
    if (r.body[0].predicate != source) kept.push_back(r);
  }
  out.SetRules(std::move(kept));
  return out;
}

Result<const InverseRuleIndex*> UseOrBuildIndex(
    const ViewSet& views, const InverseRuleIndex* prebuilt,
    Interner* interner, std::optional<InverseRuleIndex>* local) {
  if (prebuilt != nullptr) return prebuilt;
  RELCONT_ASSIGN_OR_RETURN(*local, InverseRuleIndex::Build(views, interner));
  return &**local;
}

Status CheckPlanQuery(const Program& query,
                      const std::set<SymbolId>& sources) {
  RELCONT_RETURN_NOT_OK(query.CheckSafe());
  for (const Rule& r : query.rules) {
    if (!r.comparisons.empty()) {
      return Status::Unsupported(
          "queries with comparisons need the Section 5 plan constructions");
    }
    for (const Atom& a : r.body) {
      if (sources.count(a.predicate) > 0) {
        return Status::InvalidArgument(
            "query must be over the mediated schema, not the sources");
      }
    }
  }
  return Status::OK();
}

Result<Program> MaximallyContainedPlan(const Program& query,
                                       const ViewSet& views,
                                       Interner* interner) {
  RELCONT_TRACE_SPAN("plan_inverse_rules");
  RELCONT_RETURN_NOT_OK(CheckPlanQuery(query, views.SourcePredicates()));
  RELCONT_ASSIGN_OR_RETURN(Program plan, InvertViews(views, interner));
  Program out = query;
  for (Rule& r : plan.rules) out.rules.push_back(std::move(r));
  return out;
}

Result<Program> MaximallyContainedPlan(const Program& query,
                                       const InverseRuleIndex& inverse) {
  RELCONT_RETURN_NOT_OK(CheckPlanQuery(query, inverse.sources()));
  Program out = query;
  out.rules.insert(out.rules.end(), inverse.rules().begin(),
                   inverse.rules().end());
  return out;
}

namespace {

bool HasFunctionArg(const Atom& a) {
  for (const Term& t : a.args) {
    if (t.is_function()) return true;
  }
  return false;
}

/// The unfold behind PlanToUnion: `program` (a whole plan, or a query
/// whose other rules are `inverse`'s) unfolded with every branch cut whose
/// disjuncts the function-term elimination would all drop. Resolution only
/// instantiates the head and the final (non-IDB) subgoals and never
/// removes a function symbol, so a function term there, or a final
/// subgoal no source covers, stays in every disjunct below.
Result<UnionQuery> PrunedUnfold(const Program& program, SymbolId goal,
                                const InverseRuleIndex* inverse,
                                const std::set<SymbolId>& sources,
                                Interner* interner,
                                const UnfoldOptions& options) {
  std::set<SymbolId> idb = program.IdbPredicates();
  auto is_final = [&](SymbolId pred) {
    return idb.count(pred) == 0 &&
           (inverse == nullptr || !inverse->Defines(pred));
  };
  auto dead = [&](const Rule& rule, bool leaf) {
    if (HasFunctionArg(rule.head)) return true;
    for (const Atom& a : rule.body) {
      if (is_final(a.predicate) &&
          (sources.count(a.predicate) == 0 || HasFunctionArg(a))) {
        return true;
      }
    }
    if (!leaf) return false;
    for (const Comparison& c : rule.comparisons) {
      if (c.lhs.is_function() || c.rhs.is_function()) return true;
    }
    return false;
  };
  UnfoldExtension extension;
  if (inverse != nullptr) {
    extension.more_rules = [inverse](SymbolId pred) {
      return inverse->RulesFor(pred);
    };
  }
  extension.cut = [&](const Rule& rule, bool leaf) {
    if (!dead(rule, leaf)) return false;
    RELCONT_TRACE_COUNT(kPlanDisjunctsDropped, 1);
    return true;
  };
  RELCONT_ASSIGN_OR_RETURN(
      UnionQuery out,
      UnfoldToUnion(program, goal, extension, interner, options));
  RELCONT_TRACE_COUNT(kPlanDisjunctsKept, out.disjuncts.size());
  return out;
}

}  // namespace

Result<UnionQuery> PlanToUnion(const Program& plan, SymbolId goal,
                               const ViewSet& views, Interner* interner,
                               const UnfoldOptions& options) {
  return PlanToUnion(plan, goal, views.SourcePredicates(), interner, options);
}

Result<UnionQuery> PlanToUnion(const Program& plan, SymbolId goal,
                               const std::set<SymbolId>& sources,
                               Interner* interner,
                               const UnfoldOptions& options) {
  RELCONT_TRACE_SPAN("plan_to_union");
  return PrunedUnfold(plan, goal, nullptr, sources, interner, options);
}

Result<UnionQuery> PlanToUnion(const Program& query, SymbolId goal,
                               const InverseRuleIndex& inverse,
                               Interner* interner,
                               const UnfoldOptions& options) {
  RELCONT_TRACE_SPAN("plan_to_union");
  // Inverse rules read only sources, so they close a cycle only through a
  // query rule whose head is a source predicate.
  for (SymbolId idb : query.IdbPredicates()) {
    if (inverse.sources().count(idb) == 0) continue;
    Program plan = query;
    plan.rules.insert(plan.rules.end(), inverse.rules().begin(),
                      inverse.rules().end());
    if (plan.IsRecursive()) {
      return Status::Unsupported("cannot unfold a recursive program");
    }
    break;
  }
  return PrunedUnfold(query, goal, &inverse, inverse.sources(), interner,
                      options);
}

Result<UnionQuery> MaximallyContainedUnion(const Program& query,
                                           SymbolId goal,
                                           const InverseRuleIndex& inverse,
                                           Interner* interner,
                                           const UnfoldOptions& options) {
  RELCONT_RETURN_NOT_OK(CheckPlanQuery(query, inverse.sources()));
  return PlanToUnion(query, goal, inverse, interner, options);
}

Result<UnionQuery> ExpandUnionPlan(const UnionQuery& plan,
                                   const ViewSet& views, Interner* interner) {
  // The expansion is the unfolding of the plan disjuncts against the view
  // definitions (views are exactly rules defining the source predicates).
  Program program;
  if (plan.disjuncts.empty()) return UnionQuery{};
  SymbolId goal = plan.disjuncts[0].head.predicate;
  for (const Rule& d : plan.disjuncts) {
    if (d.head.predicate != goal) {
      return Status::InvalidArgument(
          "plan disjuncts must share a head predicate");
    }
    program.rules.push_back(d);
  }
  for (const ViewDefinition& v : views.views()) {
    program.rules.push_back(v.rule);
  }
  return UnfoldToUnion(program, goal, interner);
}

Result<Program> ExpandPlanProgram(const Program& plan, const ViewSet& views,
                                  Interner* interner) {
  Program out;
  for (const Rule& rule : plan.rules) {
    Rule cur = rule;
    bool dead = false;
    // Repeatedly replace the first source subgoal by its view body.
    for (;;) {
      int idx = -1;
      for (size_t i = 0; i < cur.body.size(); ++i) {
        if (views.Find(cur.body[i].predicate) != nullptr) {
          idx = static_cast<int>(i);
          break;
        }
      }
      if (idx < 0) break;
      const ViewDefinition* view = views.Find(cur.body[idx].predicate);
      Rule fresh = RenameApart(view->rule, interner);
      Substitution mgu;
      if (!UnifyAtoms(cur.body[idx], fresh.head, &mgu)) {
        dead = true;  // e.g. a constant in the plan clashes with the view
        break;
      }
      Rule next;
      next.head = mgu.Apply(cur.head);
      for (size_t i = 0; i < cur.body.size(); ++i) {
        if (static_cast<int>(i) == idx) {
          for (const Atom& a : fresh.body) next.body.push_back(mgu.Apply(a));
        } else {
          next.body.push_back(mgu.Apply(cur.body[i]));
        }
      }
      for (const Comparison& c : cur.comparisons) {
        next.comparisons.push_back(mgu.Apply(c));
      }
      for (const Comparison& c : fresh.comparisons) {
        next.comparisons.push_back(mgu.Apply(c));
      }
      cur = std::move(next);
    }
    if (!dead) out.rules.push_back(std::move(cur));
  }
  return out;
}

}  // namespace relcont
