#ifndef RELCONT_REWRITING_INVERSE_RULES_H_
#define RELCONT_REWRITING_INVERSE_RULES_H_

#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "datalog/unfold.h"
#include "rewriting/views.h"

namespace relcont {

/// The inverse-rules algorithm of Duschka–Genesereth–Levy (Section 2.3 of
/// the paper): each view  v(X̄) :- b1, ..., bn  is inverted into n rules
/// bi σ :- v(X̄), where σ maps each existential variable of the view to a
/// Skolem term f_v_var(X̄) over the view's distinguished variables.
/// Comparison subgoals of the view are dropped from the inverse rules (the
/// source guarantees them); they reappear in expansions.
Result<Program> InvertViews(const ViewSet& views, Interner* interner);

/// The inverse rules of one catalog, keyed by head (mediated) predicate.
/// They depend only on the views, so a caller that answers many queries
/// against one catalog builds the index once per catalog version and
/// interner arena (service/catalog.h keeps one in every
/// MaterializedCatalog) and every plan resolves against it, instead of
/// re-inverting the views per query. Copyable; holds no pointers.
class InverseRuleIndex {
 public:
  InverseRuleIndex() = default;

  /// Validates and inverts `views` (InvertViews; counts plan_rules).
  static Result<InverseRuleIndex> Build(const ViewSet& views,
                                        Interner* interner);

  /// The inverse rules whose head predicate is `pred`, in InvertViews
  /// order (empty when no view covers `pred`).
  std::span<const Rule> RulesFor(SymbolId pred) const;
  /// Every inverse rule, grouped by head predicate.
  std::span<const Rule> rules() const { return rules_; }
  bool Defines(SymbolId pred) const { return ranges_.count(pred) > 0; }
  const std::set<SymbolId>& sources() const { return sources_; }

  /// The index of the same catalog without the view of `source`: exactly
  /// what Build would return for the smaller view set.
  InverseRuleIndex Without(SymbolId source) const;

 private:
  void SetRules(std::vector<Rule> rules);

  /// Grouped by head predicate; InvertViews order within a group.
  std::vector<Rule> rules_;
  std::unordered_map<SymbolId, std::pair<uint32_t, uint32_t>> ranges_;
  std::set<SymbolId> sources_;
};

/// Hands out `prebuilt` when non-null; otherwise builds the index of
/// `views` into `*local` and hands out that one. The plan consumers that
/// take an optional prebuilt index use this.
Result<const InverseRuleIndex*> UseOrBuildIndex(
    const ViewSet& views, const InverseRuleIndex* prebuilt,
    Interner* interner, std::optional<InverseRuleIndex>* local);

/// The input checks of MaximallyContainedPlan: `query` is safe,
/// comparison-free, and mentions no source predicate in a body.
Status CheckPlanQuery(const Program& query, const std::set<SymbolId>& sources);

/// The maximally-contained query plan for `query` using `views`
/// (Definition 2.2): the query's rules plus the inverse rules. The plan's
/// EDB predicates are the source predicates. Fails if the query mentions
/// source predicates directly or contains comparisons (see
/// rewriting/comparison_plans.h for the Section 5 constructions).
Result<Program> MaximallyContainedPlan(const Program& query,
                                       const ViewSet& views,
                                       Interner* interner);

/// The same plan from a prebuilt index: `query`'s rules plus the inverse
/// rules (grouped by head predicate).
Result<Program> MaximallyContainedPlan(const Program& query,
                                       const InverseRuleIndex& inverse);

/// Unfolds a nonrecursive plan into a union of conjunctive queries over the
/// source predicates and performs function-term elimination: disjuncts in
/// which a Skolem term survives (in the head or in a source subgoal) can
/// never produce a ground answer on a real source instance and are removed
/// (paper Example 3). Disjuncts mentioning a mediated-schema predicate that
/// no source covers are likewise unanswerable and removed.
///
/// The unfold prunes as it goes (docs/ALGORITHMS.md §3): a resolvent
/// whose head holds a function term, or with a final (non-IDB) subgoal
/// that holds one or names a non-source predicate, can only unfold into
/// disjuncts the elimination removes, so it is cut at once. The kept
/// disjuncts and their order are those of UnfoldToUnion-then-filter; only
/// kept disjuncts count toward options.max_disjuncts.
Result<UnionQuery> PlanToUnion(const Program& plan, SymbolId goal,
                               const ViewSet& views, Interner* interner,
                               const UnfoldOptions& options = {});

/// The same over an explicit source set (e.g. a GAV schema's sources).
Result<UnionQuery> PlanToUnion(const Program& plan, SymbolId goal,
                               const std::set<SymbolId>& sources,
                               Interner* interner,
                               const UnfoldOptions& options = {});

/// PlanToUnion of MaximallyContainedPlan(query, inverse) without building
/// the plan program: `query`'s rules and the index are resolved in place.
/// `query` must pass CheckPlanQuery.
Result<UnionQuery> PlanToUnion(const Program& query, SymbolId goal,
                               const InverseRuleIndex& inverse,
                               Interner* interner,
                               const UnfoldOptions& options = {});

/// CheckPlanQuery, then PlanToUnion against the index: the one plan
/// pipeline every Section 3 consumer uses.
Result<UnionQuery> MaximallyContainedUnion(const Program& query,
                                           SymbolId goal,
                                           const InverseRuleIndex& inverse,
                                           Interner* interner,
                                           const UnfoldOptions& options = {});

/// The expansion P^exp of a UCQ plan over the sources: every source
/// subgoal is replaced by the body of its view definition with fresh
/// existential variables (and the view's comparisons). The result is a UCQ
/// over the mediated schema.
Result<UnionQuery> ExpandUnionPlan(const UnionQuery& plan,
                                   const ViewSet& views, Interner* interner);

/// The expansion of an arbitrary (possibly recursive) datalog plan: source
/// subgoals of every rule are replaced in place by view bodies. Rules whose
/// source subgoals cannot unify with their view's head are dropped.
Result<Program> ExpandPlanProgram(const Program& plan, const ViewSet& views,
                                  Interner* interner);

}  // namespace relcont

#endif  // RELCONT_REWRITING_INVERSE_RULES_H_
