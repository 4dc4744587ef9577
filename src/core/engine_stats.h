// EngineStats: the containment/evaluation observability surface.
//
// One struct aggregates the counters of every layer the engine touches —
// homomorphism search (src/logic), XRewrite enumeration (src/rewrite), the
// chase (src/chase) and the containment loop itself (src/core). Counters
// are plain tallies with no synchronization: one request fills one
// EngineStats on the thread that runs it.

#ifndef OMQC_CORE_ENGINE_STATS_H_
#define OMQC_CORE_ENGINE_STATS_H_

#include <string>

#include "base/governor.h"
#include "cache/omq_cache.h"
#include "logic/homomorphism.h"
#include "rewrite/xrewrite.h"

namespace omqc {

struct EngineStats {
  /// Homomorphism-search layer (RHS witness checks, chase triggers).
  HomCounters hom;

  /// Rewriting layer: the LHS disjunct enumeration plus any RHS
  /// rewritings computed during evaluation.
  XRewriteStats rewrite;

  /// Chase layer (RHS evaluation of candidate witnesses).
  size_t chase_steps = 0;          ///< trigger applications
  size_t chase_atoms_derived = 0;  ///< atoms beyond the input database
  int chase_max_level = 0;         ///< deepest derivation level reached
  size_t chase_delta_rounds = 0;   ///< fixpoint rounds across chase runs
  /// Triggers enumerated before the processed-set filter; the semi-naive
  /// strategy's whole job is to shrink this relative to kNaive.
  size_t chase_triggers_enumerated = 0;
  /// Enumerated triggers dropped as already processed (naive: re-found old
  /// triggers; semi-naive: multi-decomposition duplicates only).
  size_t chase_redundant_triggers_skipped = 0;

  /// Containment layer.
  size_t disjuncts_checked = 0;    ///< candidate witnesses examined
  size_t witnesses_rejected = 0;   ///< candidates that failed to refute
  size_t budget_exhaustions = 0;   ///< RHS checks that hit some budget

  /// Compilation-cache traffic attributable to this run (src/cache).
  CacheCounters cache;

  /// Request-governor activity (base/governor.h): probe count and trips.
  /// Snapshotted from the request's governor at the entry points; fields
  /// are monotone snapshots of ONE shared source, so Merge takes the
  /// element-wise max rather than summing (several entry points of one
  /// request snapshot the same governor and must not double-count).
  GovernorCounters governor;

  void Merge(const EngineStats& other);

  /// Multi-line human-readable report (omqc_cli, benches).
  std::string ToString() const;
};

}  // namespace omqc

#endif  // OMQC_CORE_ENGINE_STATS_H_
