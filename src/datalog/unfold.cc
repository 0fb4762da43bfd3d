#include "datalog/unfold.h"

#include <unordered_map>
#include <vector>

#include "common/budget.h"
#include "datalog/substitution.h"
#include "trace/trace.h"

namespace relcont {

namespace {

/// True when `goal` and `head` can never unify: the arities differ, or
/// some position holds two constants, or a constant and a function term,
/// or two function terms, that clash at the top. A cheap pre-filter: the
/// candidate is then skipped without renaming it apart.
bool HeadsClash(const Atom& goal, const Atom& head) {
  if (goal.args.size() != head.args.size()) return true;
  for (size_t i = 0; i < goal.args.size(); ++i) {
    const Term& a = goal.args[i];
    const Term& b = head.args[i];
    if (a.is_variable() || b.is_variable()) continue;
    if (a.kind() != b.kind()) return true;
    if (a.is_constant() ? a.value() != b.value()
                        : a.symbol() != b.symbol() ||
                              a.args().size() != b.args().size()) {
      return true;
    }
  }
  return false;
}

class Unfolder {
 public:
  Unfolder(const Program& program, const UnfoldExtension& extension,
           Interner* interner, const UnfoldOptions& options)
      : extension_(extension), interner_(interner), options_(options) {
    for (const Rule& r : program.rules) local_[r.head.predicate].push_back(&r);
  }

  Result<UnionQuery> Run(SymbolId goal) {
    UnionQuery out;
    RELCONT_RETURN_NOT_OK(ForEachRule(goal, [&](const Rule& rule) {
      return Expand(RenameApart(rule, interner_), &out);
    }));
    return out;
  }

 private:
  std::span<const Rule> MoreRules(SymbolId pred) const {
    if (!extension_.more_rules) return {};
    return extension_.more_rules(pred);
  }

  bool IsIdb(SymbolId pred) const {
    return local_.count(pred) > 0 || !MoreRules(pred).empty();
  }

  /// Calls `fn` on the rules for `pred` in program order, then on
  /// extension_.more_rules(pred).
  template <typename Fn>
  Status ForEachRule(SymbolId pred, Fn&& fn) {
    if (auto it = local_.find(pred); it != local_.end()) {
      for (const Rule* r : it->second) RELCONT_RETURN_NOT_OK(fn(*r));
    }
    for (const Rule& r : MoreRules(pred)) RELCONT_RETURN_NOT_OK(fn(r));
    return Status::OK();
  }

  // Finds the first IDB subgoal of `rule`; if none, `rule` is fully
  // unfolded. Otherwise resolves it against every defining rule.
  Status Expand(const Rule& rule, UnionQuery* out) {
    RELCONT_RETURN_NOT_OK(BudgetChargeOr("unfold"));
    int idb_index = -1;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (IsIdb(rule.body[i].predicate)) {
        idb_index = static_cast<int>(i);
        break;
      }
    }
    if (extension_.cut && extension_.cut(rule, idb_index < 0)) {
      return Status::OK();
    }
    if (idb_index < 0) {
      if (static_cast<int64_t>(out->disjuncts.size()) >=
          options_.max_disjuncts) {
        return BoundReachedAt("unfold", "max_disjuncts exceeded (" +
                                            std::to_string(
                                                options_.max_disjuncts) +
                                            ")");
      }
      RELCONT_TRACE_COUNT(kUnfoldDisjuncts, 1);
      out->disjuncts.push_back(rule);
      return Status::OK();
    }
    const Atom& subgoal = rule.body[idb_index];
    return ForEachRule(subgoal.predicate, [&](const Rule& def) -> Status {
      if (HeadsClash(subgoal, def.head)) return Status::OK();
      Rule fresh = RenameApart(def, interner_);
      Substitution mgu;
      if (!UnifyAtoms(subgoal, fresh.head, &mgu)) return Status::OK();
      RELCONT_TRACE_COUNT(kUnfoldResolutions, 1);
      Rule resolved;
      resolved.head = mgu.Apply(rule.head);
      resolved.body.reserve(rule.body.size() + fresh.body.size() - 1);
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (static_cast<int>(i) == idb_index) {
          for (const Atom& a : fresh.body) resolved.body.push_back(mgu.Apply(a));
        } else {
          resolved.body.push_back(mgu.Apply(rule.body[i]));
        }
      }
      for (const Comparison& c : rule.comparisons) {
        resolved.comparisons.push_back(mgu.Apply(c));
      }
      for (const Comparison& c : fresh.comparisons) {
        resolved.comparisons.push_back(mgu.Apply(c));
      }
      return Expand(resolved, out);
    });
  }

  std::unordered_map<SymbolId, std::vector<const Rule*>> local_;
  const UnfoldExtension& extension_;
  Interner* interner_;
  const UnfoldOptions& options_;
};

}  // namespace

Result<UnionQuery> UnfoldToUnion(const Program& program, SymbolId goal,
                                 Interner* interner,
                                 const UnfoldOptions& options) {
  return UnfoldToUnion(program, goal, UnfoldExtension{}, interner, options);
}

Result<UnionQuery> UnfoldToUnion(const Program& program, SymbolId goal,
                                 const UnfoldExtension& extension,
                                 Interner* interner,
                                 const UnfoldOptions& options) {
  if (program.IsRecursive()) {
    return Status::Unsupported("cannot unfold a recursive program");
  }
  RELCONT_TRACE_SPAN("unfold");
  return Unfolder(program, extension, interner, options).Run(goal);
}

}  // namespace relcont
