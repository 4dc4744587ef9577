// 128-bit structural fingerprints for CQs, tgds, tgd sets, schemas, OMQs
// and databases — the keying layer of the compilation cache
// (src/cache/omq_cache.h).
//
// A CQ or tgd is keyed on its first-occurrence structure: its variables
// are numbered in the order they first occur, and its atoms are hashed in
// the order written. Two queries that differ only by a consistent
// variable renaming therefore share a key, and equal keys imply
// ≃-equivalence (the ≃ of Algorithm 1, decided by IsomorphicCQs) up to a
// 128-bit hash collision. The converse does not hold: reordering body
// atoms or duplicating one gives a new key, so such a query is compiled
// again rather than served from the cache. A tgd set is keyed as a set,
// so reordering the tgds keeps its key. XRewrite's in-run ≃-dedup, which
// must catch every reordering, buckets its queries by DedupBucketKey
// (rewrite/xrewrite.h) and decides by IsomorphicCQs instead, so
// omqc_rewrite does not link this library.
//
// Fingerprints hash predicate and constant *names*, never interned ids, so
// they are stable across processes and interning orders, as the
// persistent store (cache/persist.h) needs.

#ifndef OMQC_CACHE_CANONICAL_H_
#define OMQC_CACHE_CANONICAL_H_

#include <cstddef>
#include <cstdint>

#include "logic/cq.h"
#include "logic/instance.h"
#include "tgd/tgd.h"

namespace omqc {

/// A 128-bit structural fingerprint. Value type, ordered, hashable.
struct Fingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const Fingerprint& other) const {
    return hi == other.hi && lo == other.lo;
  }
  bool operator!=(const Fingerprint& other) const { return !(*this == other); }
  bool operator<(const Fingerprint& other) const {
    if (hi != other.hi) return hi < other.hi;
    return lo < other.lo;
  }
};

struct FingerprintHash {
  size_t operator()(const Fingerprint& fp) const {
    return static_cast<size_t>(fp.hi ^ (fp.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Fingerprint of a CQ: its answer terms, then its body atoms in order,
/// under first-occurrence variable numbering.
Fingerprint FingerprintCQ(const ConjunctiveQuery& q);

/// Fingerprint of one tgd: its body atoms, then its head atoms, in order
/// and under one first-occurrence variable numbering.
Fingerprint FingerprintTgd(const Tgd& tgd);

/// Order-insensitive fingerprint of a tgd set: the sorted multiset of its
/// tgds' fingerprints. Reordered or per-tgd-renamed ontologies hash
/// identically (a tgd set is semantically a set).
Fingerprint FingerprintTgdSet(const TgdSet& tgds);

/// Fingerprint of a schema: the sorted set of (name, arity) pairs.
Fingerprint FingerprintSchema(const Schema& schema);

/// Fingerprint of an OMQ (S, Σ, q), combining the three component
/// fingerprints. Takes the parts rather than an Omq to keep this layer
/// below src/core.
Fingerprint FingerprintOmqParts(const Schema& data_schema, const TgdSet& tgds,
                                const ConjunctiveQuery& q);

/// Order-insensitive fingerprint of a null-free database: the sorted
/// multiset of per-fact hashes over predicate and constant *names*. Keys
/// the chase-result cache (the chase of D under Σ is determined by D as a
/// set of facts). Not isomorphism-invariant across constant renamings —
/// constants are named individuals — and not defined for instances with
/// nulls (null ids are process-local; callers pass databases only).
Fingerprint FingerprintDatabase(const Database& db);

}  // namespace omqc

#endif  // OMQC_CACHE_CANONICAL_H_
