// OMQ containment Cont(O1, O2) (Secs. 3-6) — the paper's central problem.
//
// Architecture (one uniform engine, per DESIGN.md):
//
//   Q1 ⊆ Q2  iff  for every disjunct p of the (possibly infinite) UCQ
//   rewriting of Q1, the frozen tuple of p is a certain answer of Q2 over
//   the frozen body of p.
//
// * The "only if" direction is the homomorphism-closure argument from the
//   proof of Prop. 10; the "if" direction is soundness of rewriting.
// * For UCQ-rewritable LHS languages (linear / non-recursive / sticky,
//   Sec. 4) the rewriting enumeration saturates, so this is a *decision
//   procedure* realizing the small-witness algorithm of Theorem 11: the
//   candidate witnesses are exactly the frozen disjuncts, whose size obeys
//   Props. 12 / 14 / 17.
// * For a guarded LHS (Sec. 5) the perfect rewriting may be infinite; the
//   enumeration is then a sound refutation-complete semi-procedure (every
//   non-containment is witnessed by some frozen disjunct), certifying
//   containment when the enumeration saturates and returning kUnknown at
//   the budget otherwise. This replaces the paper's 2WAPA emptiness test,
//   which decides the same question in the 2EXPTIME worst case; see the
//   substitution table in DESIGN.md.
// * The right-hand side is one OmqEvaluator (src/core/eval.h), prepared
//   once per request: a CQ, a UCQ-OMQ and a plain UCQ (the empty-ontology
//   case) all go through it. A guarded RHS uses the budgeted chase and may
//   also contribute kUnknown; a candidate is in a UCQ RHS as soon as one
//   disjunct matches its one chase.

#ifndef OMQC_CORE_CONTAINMENT_H_
#define OMQC_CORE_CONTAINMENT_H_

#include <optional>
#include <string>

#include "core/engine_stats.h"
#include "core/eval.h"
#include "core/omq.h"
#include "rewrite/xrewrite.h"

namespace omqc {

enum class ContainmentOutcome {
  kContained,     ///< Q1 ⊆ Q2, certified
  kNotContained,  ///< counterexample database found
  kUnknown,       ///< a budget was exhausted before a certificate
};

const char* ContainmentOutcomeToString(ContainmentOutcome outcome);

/// A counterexample to containment: tuple ∈ Q1(database) \ Q2(database).
struct ContainmentWitness {
  Database database;
  std::vector<Term> tuple;
};

struct ContainmentResult {
  ContainmentOutcome outcome = ContainmentOutcome::kUnknown;
  /// kNotContained only: the first refuting candidate in enumeration
  /// order, so the same inputs always report the same counterexample.
  std::optional<ContainmentWitness> witness;
  /// Explanation for kUnknown outcomes.
  std::string detail;
  /// Number of candidate witnesses (frozen rewriting disjuncts) examined.
  size_t candidates_checked = 0;
  /// Size (atoms) of the largest candidate witness examined.
  size_t max_witness_size = 0;
  /// Per-layer work counters of the whole run (LHS enumeration, RHS
  /// chase/rewriting/homomorphism searches).
  EngineStats stats;
};

struct ContainmentOptions {
  /// Budgets for enumerating the LHS rewriting. Subsumption pruning is on
  /// by default: it preserves refutation-completeness (a pruned candidate
  /// is homomorphically covered by the disjunct that subsumed it) and
  /// makes the enumeration saturate on many guarded ontologies.
  XRewriteOptions rewrite;
  /// Budgets for evaluating the RHS over candidate witnesses.
  EvalOptions eval;
  /// Optional compilation cache (null = no caching). Consulted for the LHS
  /// rewriting enumeration and the RHS rewriting; it overrides
  /// `eval.cache`. Shared safely across threads and calls; outcomes are
  /// identical with and without it (only compilation work is reused).
  OmqCache* cache = nullptr;
  /// Optional shared request governor (base/governor.h) bounding the whole
  /// containment request — LHS enumeration, freezing, and every RHS check
  /// — by wall-clock deadline, cooperative cancellation and memory budget
  /// (null = unbounded, no checks). A refutation stops the enumeration
  /// without touching it. A trip degrades the outcome to kUnknown with the
  /// trip in `detail` — a refutation found before the trip still wins
  /// (kNotContained), and a definite answer is never flipped. It overrides
  /// `eval.governor`. Not owned.
  ResourceGovernor* governor = nullptr;

  ContainmentOptions() {
    rewrite.prune_subsumed = true;
    // Subsumption pruning still scans the earlier disjuncts per candidate
    // (one freeze of the candidate, then a homomorphism search into it
    // from each earlier disjunct whose predicates it all has), so the
    // scan grows with the enumeration: keep the default budget
    // interactive and raise it for hard instances (the engine returns
    // kUnknown, never a wrong answer, when the budget is hit).
    rewrite.max_queries = 5000;
  }
};

/// Decides Q1 ⊆ Q2. Exact whenever Q1's ontology is linear, non-recursive
/// or sticky and Q2's evaluation is exact (Thm. 11 + Props. 12/14/17);
/// sound, refutation-complete and budget-limited when Q1 is guarded or
/// beyond (Sec. 5 scope; see header comment). The two OMQs must share the
/// data schema and answer arity.
Result<ContainmentResult> CheckContainment(
    const Omq& q1, const Omq& q2,
    const ContainmentOptions& options = ContainmentOptions());

/// Decides Q1 ⊆ u for a plain UCQ u over the data schema (the
/// Cont((G,CQ), UCQ) building block of Sec. 6.2 and Sec. 7.2).
Result<ContainmentResult> CheckContainmentInUcq(
    const Omq& q1, const UnionOfCQs& ucq,
    const ContainmentOptions& options = ContainmentOptions());

/// Containment for OMQs with UCQ queries: (S,Σ1,∨q1i) ⊆ (S,Σ2,∨q2j) iff
/// every (S,Σ1,q1i) is contained in the RHS (union distributes on the
/// left). The RHS keeps its UCQ.
Result<ContainmentResult> CheckUcqOmqContainment(
    const UcqOmq& q1, const UcqOmq& q2,
    const ContainmentOptions& options = ContainmentOptions());

/// Q1 ≡ Q2: containment in both directions.
Result<ContainmentResult> CheckEquivalence(
    const Omq& q1, const Omq& q2,
    const ContainmentOptions& options = ContainmentOptions());

}  // namespace omqc

#endif  // OMQC_CORE_CONTAINMENT_H_
