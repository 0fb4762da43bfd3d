#ifndef RELCONT_RELCONT_CEGAR_H_
#define RELCONT_RELCONT_CEGAR_H_

#include <atomic>
#include <cstdint>

#include "relcont/relative_containment.h"

namespace relcont {

/// Counterexample-guided (CEGAR) engine for the Section 3 decision.
///
/// The Theorem 3.1 procedure as written materializes BOTH unfolded plans
/// (up to 2^m disjuncts each on the Theorem 3.3 family) and scans every
/// left disjunct against the whole right union — ~4^m disjunct pairs. This
/// engine keeps the same semantics but never materializes either plan:
///
///   PROPOSE   Enumerate candidate counterexamples from a FACTORED left
///             plan: unfold Q1 to mediated-level templates, then treat
///             each template body atom as a choice point over the inverse
///             rules that can resolve it. A DFS over the choice points
///             composes the most-general unifiers incrementally; each leaf
///             is one left plan disjunct — a candidate source instance
///             (its frozen body) on which Q1 has a certain answer.
///             Candidates in which a Skolem term survives are skipped,
///             mirroring PlanToUnion's function-term elimination.
///
///   CHECK     Decide whether Q2 covers the candidate WITHOUT unfolding
///             P2: a second DFS assigns every body atom of a right
///             template an (inverse-rule copy, candidate atom) pair,
///             unifying the atom with the copy's head (resolution) and the
///             copy's produced source atom against the candidate atom with
///             the candidate's terms rigid (the containment-mapping
///             semantics — candidate variables act as frozen constants).
///             This fuses "unfold P2" and "find a homomorphism" into one
///             search, so a cover costs one backtracking walk instead of a
///             scan of 2^m materialized right disjuncts.
///
///   REFINE    A successful cover touched only some candidate atoms (its
///             support) and the head. The left choice assignment restricted
///             to the support's variable-sharing closure is learned as a
///             blocking clause: any later proposal agreeing with it
///             produces syntactically identical atoms there, so the same
///             cover applies and the proposal is pruned unchecked.
///
/// The verdict contract matches the scan exactly: a candidate no right
/// template covers is a definite NO (reported as the witness, same shape
/// as a scan witness disjunct); exhausting the proposal space is a YES;
/// budget exhaustion surfaces as kBoundReached at the `cegar_search`
/// bound site, never as a verdict. RelativeContainmentResult::plan1/plan2
/// are left EMPTY — not materializing them is the point.
///
/// Known fallback: when a query IDB predicate collides with a mediated
/// (view-body) predicate, the two-level factorization no longer mirrors
/// the joint unfold, so the scan decides on the same compiled pair
/// (identical verdicts by construction).

/// Per-run counters, also pushed to the trace counters
/// (cegar_{iterations,blocking_clauses,proposals}) and the process-wide
/// aggregates below on every exit path — including error returns, so a
/// budget-tripped run still accounts for the work it did.
struct CegarStats {
  /// Left DFS leaves reached: candidates formed, including the ones
  /// skipped by function-term elimination.
  uint64_t proposals = 0;
  /// Cover checks performed (CEGAR loop iterations).
  uint64_t iterations = 0;
  /// Blocking clauses learned from successful covers.
  uint64_t blocking_clauses = 0;
};

/// Process-wide monotone counters, mirrored into METRICS, /metrics, and
/// /statusz (docs/OBSERVABILITY.md). Relaxed ordering; bumped once per
/// run, not per event, so the hot loops never touch shared cache lines.
struct CegarGlobalCounters {
  std::atomic<uint64_t> iterations{0};
  std::atomic<uint64_t> blocking_clauses{0};
  std::atomic<uint64_t> proposals{0};
};

CegarGlobalCounters& GlobalCegarCounters();

/// Decides Q1 ⊑_V Q2 with the CEGAR engine. Honors
/// `options.strategy == kAuto` by estimating the left plan width (the sum
/// over templates of the product of per-atom inverse-rule choices, read
/// off the index) and scanning the same compiled pair below
/// CegarOptions::auto_width_threshold. `stats`, when non-null, receives
/// the run's counters even when the result is an error. `inverse` as for
/// RelativelyContained.
Result<RelativeContainmentResult> CegarRelativelyContained(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    Interner* interner, const RelativeContainmentOptions& options = {},
    CegarStats* stats = nullptr, const InverseRuleIndex* inverse = nullptr);

/// The Section 3 pipeline behind both entry points: compiles the pair once
/// against the inverse rules (`prebuilt`, or built here), then scans
/// (kScan, or kAuto below auto_width_threshold) or searches (kCegar, kAuto
/// at or above it); a search publishes its counters as documented above.
Result<RelativeContainmentResult> DecideCompiledPair(
    const GoalQuery& q1, const GoalQuery& q2, const ViewSet& views,
    const InverseRuleIndex* prebuilt, Interner* interner,
    const RelativeContainmentOptions& options, CegarStats* stats);

}  // namespace relcont

#endif  // RELCONT_RELCONT_CEGAR_H_
