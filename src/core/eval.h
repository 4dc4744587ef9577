// OMQ evaluation Eval(C, CQ) (Sec. 2, Props. 1-4): certain answers of an
// OMQ over a database. One prepared evaluator (OmqEvaluator) makes the
// class dispatch once and serves every membership check, both for the
// entry points below and for the right-hand side of containment
// (src/core/containment.h, via Thm. 11's small-witness argument):
//
//   * empty ontology        — direct (U)CQ evaluation, no chase copy
//                             (NP data-independent);
//   * linear / sticky whose chase need not terminate
//                           — UCQ rewriting (XRewrite), then plain UCQ
//                             evaluation; always exact and terminating;
//   * non-recursive / full  — terminating restricted chase;
//   * guarded               — restricted chase with a derivation-level
//                             budget (the Calì–Gottlob–Kifer bounded chase
//                             prefix; see DESIGN.md); positive answers from
//                             a truncated chase are sound, a negative
//                             answer is only reported when the chase
//                             reached its fixpoint — otherwise
//                             ResourceExhausted;
//   * general               — budgeted chase, same contract as guarded
//                             (Eval(TGD,CQ) is undecidable, Cor. 7).

#ifndef OMQC_CORE_EVAL_H_
#define OMQC_CORE_EVAL_H_

#include <memory>
#include <optional>
#include <vector>

#include "cache/omq_cache.h"
#include "chase/chase.h"
#include "core/engine_stats.h"
#include "core/omq.h"
#include "rewrite/xrewrite.h"

namespace omqc {

/// Budgets for evaluation. The evaluation path is always chosen by the
/// ontology's class (see the file comment).
struct EvalOptions {
  /// Chase budgets used by the chase path for guarded/general ontologies.
  size_t chase_max_atoms = 200000;
  int chase_max_level = 16;
  /// Step budget for each final query-matching homomorphism search
  /// (0 = unlimited). An exhausted search is reported as
  /// Status::ResourceExhausted, never as a negative answer.
  size_t hom_max_steps = 0;
  /// Rewriting budgets for the rewriting path.
  XRewriteOptions rewrite;
  /// Optional compilation cache consulted for UCQ rewritings and complete
  /// chase results (null = no caching), memory-only or disk-backed. Not
  /// owned; must outlive the call. Sharing one cache across threads and
  /// calls is safe and is the point.
  OmqCache* cache = nullptr;
  /// Optional shared request governor (base/governor.h), threaded into
  /// every chase, rewriting and homomorphism search the evaluation runs.
  /// A trip surfaces as the trip status (kDeadlineExceeded / kCancelled /
  /// kResourceExhausted); positive answers found before the trip remain
  /// sound. Not owned.
  ResourceGovernor* governor = nullptr;
};

/// A prepared evaluator for an OMQ (S, Σ, q) or a UCQ-OMQ
/// (S, Σ, q1 ∨ … ∨ qn). Prepare classifies Σ once and, on the rewriting
/// path, fetches or computes each disjunct's UCQ rewriting once (through
/// options.cache); every later check reuses them.
///
/// Request-scoped: it keeps pointers into the OMQ it was prepared from and
/// uses the options' cache and governor on every call, so it must not
/// outlive any of them. It is never cached.
class OmqEvaluator {
 public:
  /// Validates `omq` and prepares its evaluation. Rewriting work and cache
  /// traffic are tallied into `stats` when non-null. Fails with the
  /// rewriting's status when a budget stopped the RHS rewriting.
  static Result<OmqEvaluator> Prepare(const Omq& omq,
                                      const EvalOptions& options,
                                      EngineStats* stats = nullptr);
  static Result<OmqEvaluator> Prepare(const UcqOmq& omq,
                                      const EvalOptions& options,
                                      EngineStats* stats = nullptr);

  /// Is `tuple` a certain answer over `database`? True as soon as some
  /// disjunct matches (sound even on a truncated chase); false only when
  /// every disjunct was refuted exhaustively and the chase, if one ran,
  /// reached its fixpoint. Otherwise ResourceExhausted (a homomorphism
  /// step budget or the chase budget) or the governor's trip status.
  /// `database` is not checked against the data schema (EvalTuple does).
  Result<bool> Contains(const Database& database,
                        const std::vector<Term>& tuple,
                        EngineStats* stats = nullptr) const;

  /// All certain answers over `database`, or an error status when a budget
  /// or a trip may have hidden some.
  Result<std::vector<std::vector<Term>>> Answers(
      const Database& database, EngineStats* stats = nullptr) const;

 private:
  OmqEvaluator() = default;
  static Result<OmqEvaluator> PrepareParts(
      const Schema& data_schema, const TgdSet& tgds,
      std::vector<const ConjunctiveQuery*> disjuncts,
      const EvalOptions& options, EngineStats* stats);

  const TgdSet* tgds_ = nullptr;
  EvalOptions options_;
  /// Set on the chase path; unset means `match_` is matched against the
  /// database itself.
  std::optional<ChaseOptions> chase_;
  /// Keeps alive the rewritings `match_` points into.
  std::vector<std::shared_ptr<const UnionOfCQs>> rewritings_;
  /// The CQs a candidate tuple is matched against.
  std::vector<const ConjunctiveQuery*> match_;
};

/// Is `tuple` a certain answer of Q over `database`? Prepares an
/// OmqEvaluator and checks once: exact for all decidable classes;
/// ResourceExhausted when a budget prevented an exact negative answer. If
/// `stats` is non-null, counters of the work performed (chase, rewriting,
/// homomorphism search) are accumulated into it.
Result<bool> EvalTuple(const Omq& omq, const Database& database,
                       const std::vector<Term>& tuple,
                       const EvalOptions& options = EvalOptions(),
                       EngineStats* stats = nullptr);

/// All certain answers Q(D). Same exactness contract as EvalTuple.
Result<std::vector<std::vector<Term>>> EvalAll(
    const Omq& omq, const Database& database,
    const EvalOptions& options = EvalOptions(), EngineStats* stats = nullptr);

/// Boolean convenience: Q(D) ≠ ∅ for a Boolean OMQ.
Result<bool> EvalBoolean(const Omq& omq, const Database& database,
                         const EvalOptions& options = EvalOptions(),
                         EngineStats* stats = nullptr);

}  // namespace omqc

#endif  // OMQC_CORE_EVAL_H_
