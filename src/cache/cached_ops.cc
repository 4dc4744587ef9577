#include "cache/cached_ops.h"

#include <utility>
#include <vector>

namespace omqc {
namespace {

uint64_t DigestCombine(uint64_t h, uint64_t v) {
  return (h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2))) *
         0x00000100000001b3ULL;
}

size_t ApproxBytes(const ConjunctiveQuery& q) {
  size_t bytes = sizeof(ConjunctiveQuery);
  bytes += q.answer_vars.size() * sizeof(Term);
  for (const Atom& a : q.body) {
    bytes += sizeof(Atom) + a.args.size() * sizeof(Term);
  }
  return bytes;
}

}  // namespace

uint64_t XRewriteOptionsDigest(const XRewriteOptions& options) {
  // Deliberately excludes options.governor: the rewriting a saturated run
  // produces is independent of how the run was governed, and keying on a
  // per-request pointer would defeat cross-request sharing (and tempt the
  // cache into holding a dangling pointer).
  uint64_t h = 0xa0761d6478bd642fULL;
  h = DigestCombine(h, options.max_queries);
  h = DigestCombine(h, options.max_steps);
  h = DigestCombine(h, options.max_group_size);
  h = DigestCombine(h, options.minimize_disjuncts ? 1 : 0);
  h = DigestCombine(h, options.prune_subsumed ? 1 : 0);
  return h;
}

CacheKey RewritingCacheKey(const Schema& data_schema, const TgdSet& tgds,
                           const ConjunctiveQuery& q,
                           const XRewriteOptions& options) {
  return CacheKey{FingerprintOmqParts(data_schema, tgds, q),
                  XRewriteOptionsDigest(options), ArtifactKind::kRewriting};
}

CacheKey ChaseCacheKey(const Database& db, const TgdSet& tgds,
                       uint64_t chase_options_digest) {
  Fingerprint d = FingerprintDatabase(db);
  Fingerprint t = FingerprintTgdSet(tgds);
  // Pairwise-combine the two 128-bit fingerprints (order-sensitive: the
  // database and ontology roles are distinct).
  Fingerprint fp;
  fp.hi = DigestCombine(DigestCombine(d.hi, t.hi), 0xC0DEC0DE01ULL);
  fp.lo = DigestCombine(DigestCombine(d.lo, t.lo), 0xC0DEC0DE02ULL);
  return CacheKey{fp, chase_options_digest, ArtifactKind::kChasedInstance};
}

size_t ApproxBytes(const UnionOfCQs& ucq) {
  size_t bytes = sizeof(UnionOfCQs);
  for (const ConjunctiveQuery& d : ucq.disjuncts) bytes += ApproxBytes(d);
  return bytes;
}

Result<std::shared_ptr<const UnionOfCQs>> CachedXRewrite(
    OmqCache* cache, const Schema& data_schema, const TgdSet& tgds,
    const ConjunctiveQuery& q, const XRewriteOptions& options,
    XRewriteStats* stats, CacheCounters* counters) {
  if (cache == nullptr) {
    OMQC_ASSIGN_OR_RETURN(UnionOfCQs rewriting,
                          XRewrite(data_schema, tgds, q, options, stats));
    return std::make_shared<const UnionOfCQs>(std::move(rewriting));
  }
  CacheKey key = RewritingCacheKey(data_schema, tgds, q, options);
  if (auto hit = cache->Get<CachedRewriting>(key, counters)) {
    // No rewriting work was performed, so `stats` stays untouched (the
    // hit itself shows up in `counters`).
    // Aliasing constructor: share ownership of the entry, expose the UCQ.
    return std::shared_ptr<const UnionOfCQs>(hit, &hit->ucq);
  }
  auto computed = std::make_shared<CachedRewriting>();
  OMQC_ASSIGN_OR_RETURN(
      computed->ucq,
      XRewrite(data_schema, tgds, q, options, &computed->compute_stats));
  if (stats != nullptr) stats->Merge(computed->compute_stats);
  std::shared_ptr<const CachedRewriting> entry = std::move(computed);
  cache->Put(key, entry, ApproxBytes(entry->ucq), counters);
  return std::shared_ptr<const UnionOfCQs>(entry, &entry->ucq);
}

Result<RewriteEnumeration> CachedEnumerateRewritings(
    OmqCache* cache, const Schema& data_schema, const TgdSet& tgds,
    const ConjunctiveQuery& q, const XRewriteOptions& options,
    const std::function<bool(const ConjunctiveQuery&)>& on_disjunct,
    XRewriteStats* stats, CacheCounters* counters) {
  if (cache == nullptr) {
    return EnumerateRewritings(data_schema, tgds, q, options, on_disjunct,
                               stats);
  }
  CacheKey key = RewritingCacheKey(data_schema, tgds, q, options);
  if (auto hit = cache->Get<CachedRewriting>(key, counters)) {
    for (const ConjunctiveQuery& d : hit->ucq.disjuncts) {
      if (!on_disjunct(d)) return RewriteEnumeration::kStopped;
    }
    return RewriteEnumeration::kSaturated;
  }
  auto collected = std::make_shared<CachedRewriting>();
  auto wrapped = [&collected, &on_disjunct](const ConjunctiveQuery& d) {
    collected->ucq.disjuncts.push_back(d);
    return on_disjunct(d);
  };
  OMQC_ASSIGN_OR_RETURN(
      RewriteEnumeration outcome,
      EnumerateRewritings(data_schema, tgds, q, options, wrapped,
                          &collected->compute_stats));
  if (stats != nullptr) stats->Merge(collected->compute_stats);
  if (outcome == RewriteEnumeration::kSaturated) {
    size_t bytes = ApproxBytes(collected->ucq);
    cache->Put<CachedRewriting>(key, std::move(collected), bytes, counters);
  }
  return outcome;
}

}  // namespace omqc
