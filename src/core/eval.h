// OMQ evaluation Eval(C, CQ) (Sec. 2, Props. 1-4): certain answers of an
// OMQ over a database, dispatched by ontology class:
//
//   * empty ontology        — direct CQ evaluation (NP data-independent);
//   * non-recursive / full  — terminating restricted chase;
//   * linear / sticky       — UCQ rewriting (XRewrite), then plain UCQ
//                             evaluation; always exact and terminating;
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

#include <vector>

#include "cache/omq_cache.h"
#include "chase/chase.h"
#include "core/engine_stats.h"
#include "core/omq.h"
#include "rewrite/xrewrite.h"

namespace omqc {

/// Budgets and strategy selection for evaluation.
struct EvalOptions {
  enum class Strategy {
    kAuto,     ///< dispatch on the ontology class (recommended)
    kChase,    ///< force the chase path
    kRewrite,  ///< force the rewriting path
  };
  Strategy strategy = Strategy::kAuto;
  /// Chase budgets used by the chase path for guarded/general ontologies.
  size_t chase_max_atoms = 200000;
  int chase_max_level = 16;
  /// Step budget for each final query-matching homomorphism search
  /// (0 = unlimited). An exhausted search is reported as
  /// Status::ResourceExhausted, never as a negative answer.
  size_t hom_max_steps = 0;
  /// Rewriting budgets for the rewriting path.
  XRewriteOptions rewrite;
  /// Optional compilation cache consulted for ontology classification,
  /// UCQ rewritings and complete chase results (null = no caching),
  /// memory-only or disk-backed. Not owned; must outlive the call.
  /// Sharing one cache across threads and calls is safe and is the point.
  OmqCache* cache = nullptr;
  /// Optional shared request governor (base/governor.h), threaded into
  /// every chase, rewriting and homomorphism search the evaluation runs.
  /// A trip surfaces as the trip status (kDeadlineExceeded / kCancelled /
  /// kResourceExhausted); positive answers found before the trip remain
  /// sound. Not owned; excluded from EvalOptionsDigest.
  ResourceGovernor* governor = nullptr;
};

/// Digest of every EvalOptions field that can change an evaluation result
/// (the cache and governor pointers are excluded: caching never changes
/// results, and the governor only bounds resources — cached artifacts must
/// stay reusable across differently-governed requests).
/// Part of cache keys so artifacts compiled under different budgets never
/// alias.
uint64_t EvalOptionsDigest(const EvalOptions& options);

/// Is `tuple` a certain answer of Q over `database`? Exact for all
/// decidable classes; ResourceExhausted when a budget prevented an exact
/// negative answer. If `stats` is non-null, counters of the work performed
/// (chase, rewriting, homomorphism search) are accumulated into it.
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
