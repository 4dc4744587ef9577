// Isomorphism-invariant canonical forms and 128-bit structural
// fingerprints for CQs, tgds, tgd sets and OMQs — the keying layer of the
// compilation cache (src/cache/omq_cache.h).
//
// Two queries that are equal up to bijective variable renaming (the ≃ of
// Algorithm 1, decided by IsomorphicCQs) receive the *same* canonical form
// and hence the same fingerprint; distinct structures collide only with
// the probability of a 128-bit hash collision. The canonizer runs iterated
// color refinement (1-WL on the query hypergraph: variables are vertices,
// atoms are labeled hyperedges) followed by individualization with
// backtracking for symmetric queries — the classic graph-canonization
// recipe restricted to query hypergraphs. Refinement alone cannot separate
// e.g. a 6-cycle from two 3-cycles; the backtracking tie-break can.
//
// Fingerprints hash predicate and constant *names*, never interned ids, so
// they are stable across processes and interning orders. That stability
// is what the cache keys need; XRewrite's in-run ≃-dedup does not, and
// buckets its queries by the cheaper DedupBucketKey (rewrite/xrewrite.h)
// instead, so omqc_rewrite does not link this library.

#ifndef OMQC_CACHE_CANONICAL_H_
#define OMQC_CACHE_CANONICAL_H_

#include <cstdint>
#include <string>

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

  /// 32 lowercase hex digits.
  std::string ToHex() const;
};

struct FingerprintHash {
  size_t operator()(const Fingerprint& fp) const {
    return static_cast<size_t>(fp.hi ^ (fp.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// The canonical representative of a CQ's ≃-class: variables renumbered
/// x0, x1, ... in canonical order, body atoms sorted and deduplicated.
/// Canonicalization is idempotent: CanonicalizeCQ(c.query).query == c.query.
struct CanonicalCQ {
  ConjunctiveQuery query;
  Fingerprint fingerprint;
};

/// Canonicalizes a CQ. Isomorphic inputs (IsomorphicCQs) yield identical
/// results; the canonical query is ≃-equivalent to the input.
CanonicalCQ CanonicalizeCQ(const ConjunctiveQuery& q);

/// Fingerprint without materializing the canonical query.
Fingerprint FingerprintCQ(const ConjunctiveQuery& q);

/// Order-insensitive fingerprint of a UCQ: the sorted multiset of its
/// disjuncts' fingerprints.
Fingerprint FingerprintUCQ(const UnionOfCQs& ucq);

/// Fingerprint of one tgd, invariant under variable renaming (body and
/// head share one variable scope; body/head membership is part of the
/// structure).
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

/// Like FingerprintOmqParts with a UCQ query (order-insensitive in the
/// disjuncts).
Fingerprint FingerprintUcqOmqParts(const Schema& data_schema,
                                   const TgdSet& tgds, const UnionOfCQs& ucq);

/// Order-insensitive fingerprint of a null-free database: the sorted
/// multiset of per-fact hashes over predicate and constant *names*. Keys
/// the chase-result cache (the chase of D under Σ is determined by D as a
/// set of facts). Not isomorphism-invariant across constant renamings —
/// constants are named individuals — and not defined for instances with
/// nulls (null ids are process-local; callers pass databases only).
Fingerprint FingerprintDatabase(const Database& db);

}  // namespace omqc

#endif  // OMQC_CACHE_CANONICAL_H_
