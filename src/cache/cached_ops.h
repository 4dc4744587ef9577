// Cache-aware wrappers around the compilation steps of the engine: UCQ
// rewriting (src/rewrite/xrewrite) and the chase results EvalAll reuses
// (src/core/eval.cc). Every function degrades to a plain computation
// when `cache` is null, so callers thread one optional pointer through and
// never branch on caching themselves. All wrappers are safe to call
// concurrently with a shared cache (per-run tallies go to the caller's
// CacheCounters, which must not be shared across threads). A disk-backed
// cache (OmqCache::Open) consults and fills its on-disk tier
// transparently.

#ifndef OMQC_CACHE_CACHED_OPS_H_
#define OMQC_CACHE_CACHED_OPS_H_

#include <memory>

#include "cache/omq_cache.h"
#include "logic/instance.h"
#include "rewrite/xrewrite.h"

namespace omqc {

/// A cached (complete) UCQ rewriting together with the stats of the run
/// that produced it.
struct CachedRewriting {
  UnionOfCQs ucq;
  XRewriteStats compute_stats;
};

/// A cached chase result: the *saturated* (fixpoint) instance of chasing
/// a database under a tgd set. Only complete chases are ever cached —
/// truncated chases depend on the budget that stopped them and are
/// recomputed. Keyed by ChaseCacheKey (src/core/eval.cc wires this into
/// the certain-answer chase path).
struct CachedChase {
  Instance instance;
};

/// Digest of every XRewriteOptions field that can change the rewriting.
uint64_t XRewriteOptionsDigest(const XRewriteOptions& options);

/// Cache key for the rewriting of (data_schema, tgds, q) under `options`.
CacheKey RewritingCacheKey(const Schema& data_schema, const TgdSet& tgds,
                           const ConjunctiveQuery& q,
                           const XRewriteOptions& options);

/// Cache key for the chase of `db` under `tgds`. The fingerprint combines
/// the database's fact-multiset hash with the tgd set's canonical
/// fingerprint; `chase_options_digest` folds every chase option that can
/// change the result (variant, strategy, budgets).
CacheKey ChaseCacheKey(const Database& db, const TgdSet& tgds,
                       uint64_t chase_options_digest);

/// Rough byte footprint of a UCQ (for cache accounting only).
size_t ApproxBytes(const UnionOfCQs& ucq);

/// XRewrite with caching: returns a shared complete rewriting, computing
/// and inserting it on miss. Budget exhaustion propagates as
/// ResourceExhausted and is never cached. On a hit, `stats` is untouched
/// (EngineStats counters mean work performed; the saved compilation shows
/// up as a hit in `counters` instead).
Result<std::shared_ptr<const UnionOfCQs>> CachedXRewrite(
    OmqCache* cache, const Schema& data_schema, const TgdSet& tgds,
    const ConjunctiveQuery& q, const XRewriteOptions& options,
    XRewriteStats* stats = nullptr, CacheCounters* counters = nullptr);

/// EnumerateRewritings with caching: replays a cached saturated rewriting
/// through `on_disjunct` (outcome kSaturated, or kStopped if the callback
/// stops), or enumerates live and caches the disjunct list when the
/// enumeration saturates. Budget-exhausted and stopped enumerations are
/// not cached (they are incomplete).
Result<RewriteEnumeration> CachedEnumerateRewritings(
    OmqCache* cache, const Schema& data_schema, const TgdSet& tgds,
    const ConjunctiveQuery& q, const XRewriteOptions& options,
    const std::function<bool(const ConjunctiveQuery&)>& on_disjunct,
    XRewriteStats* stats = nullptr, CacheCounters* counters = nullptr);

}  // namespace omqc

#endif  // OMQC_CACHE_CACHED_OPS_H_
