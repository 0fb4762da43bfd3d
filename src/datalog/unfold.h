#ifndef RELCONT_DATALOG_UNFOLD_H_
#define RELCONT_DATALOG_UNFOLD_H_

#include <functional>
#include <span>

#include "common/status.h"
#include "datalog/program.h"

namespace relcont {

/// Options for unfolding nonrecursive programs.
struct UnfoldOptions {
  /// Hard cap on the number of produced disjuncts (the number can be
  /// exponential in program size, e.g. in the Theorem 3.3 reduction).
  int64_t max_disjuncts = 1'000'000;
};

/// Unfolds the nonrecursive `program` into an equivalent union of
/// conjunctive queries for the predicate `goal`: every IDB subgoal is
/// resolved against its defining rules until only EDB subgoals remain.
/// Comparison subgoals are carried along (with the unifier applied).
///
/// Unification-based resolution handles Skolem function terms, so this
/// also unfolds the query plans produced by the inverse-rules algorithm.
/// Fails with kUnsupported on recursive programs.
Result<UnionQuery> UnfoldToUnion(const Program& program, SymbolId goal,
                                 Interner* interner,
                                 const UnfoldOptions& options = {});

/// What a caller can layer on the unfold (PlanToUnion does, in
/// rewriting/inverse_rules.cc): rules kept outside the program, and a cut
/// for branches whose every disjunct it would drop anyway.
struct UnfoldExtension {
  /// Rules for a predicate tried after the program's own (a catalog's
  /// inverse rules); a predicate they define counts as IDB.
  std::function<std::span<const Rule>(SymbolId)> more_rules;
  /// True when every disjunct `rule` can unfold into is unwanted: the
  /// branch is cut. `leaf` marks a fully unfolded disjunct. Cut leaves
  /// do not count toward max_disjuncts.
  std::function<bool(const Rule& rule, bool leaf)> cut;
};

/// UnfoldToUnion with `extension`. The caller rules out recursion through
/// more_rules (the program's own recursion is checked here).
Result<UnionQuery> UnfoldToUnion(const Program& program, SymbolId goal,
                                 const UnfoldExtension& extension,
                                 Interner* interner,
                                 const UnfoldOptions& options = {});

}  // namespace relcont

#endif  // RELCONT_DATALOG_UNFOLD_H_
