// XRewrite (Algorithm 1; Gottlob, Orsi, Pieris, cited as [40]): computes a
// UCQ rewriting of an OMQ whose ontology falls in a UCQ-rewritable class
// (linear, non-recursive, sticky — Sec. 4).
//
// The algorithm exhaustively applies two steps starting from the input CQ:
//   * rewriting  — resolve a unifiable subset S of a query's body with the
//     head of a (renamed-apart) tgd, subject to the applicability condition
//     (Def. 6), replacing S by the tgd's body under the MGU;
//   * factorization — unify a subset S of body atoms sharing an existential
//     position (Def. 7), producing auxiliary queries needed for
//     completeness.
// Queries are deduplicated modulo bijective variable renaming (≃). The
// final rewriting keeps the rewriting-labeled queries over the data schema.

#ifndef OMQC_REWRITE_XREWRITE_H_
#define OMQC_REWRITE_XREWRITE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "base/status.h"
#include "logic/cq.h"
#include "tgd/tgd.h"

namespace omqc {

class ResourceGovernor;

/// Resource budgets for XRewrite. The rewriting terminates for L, NR and S
/// ontologies but may be exponentially large (Props. 14, 17); budgets turn
/// a blow-up into Status::ResourceExhausted instead of an endless run.
struct XRewriteOptions {
  /// Maximum number of generated queries (explored + frontier). Enforced
  /// at admission time: once the cap is reached no further query is
  /// stored, the run is marked budget-exhausted, and `queries_generated`
  /// never exceeds this value (a single exploration burst cannot blow
  /// past it).
  size_t max_queries = 100000;
  /// Maximum number of rewriting/factorization step applications, checked
  /// per step (same no-overshoot guarantee as max_queries).
  size_t max_steps = 1000000;
  /// Largest per-predicate body group for subset enumeration (the subsets
  /// S range over atoms sharing the head predicate of a tgd).
  size_t max_group_size = 20;
  /// Minimize every generated CQ by dropping redundant atoms (atoms whose
  /// removal yields an equivalent query). This is the "query elimination"
  /// optimization of the XRewrite paper [40]; it preserves the semantics
  /// of every query (each minimized CQ is equivalent to the original) and
  /// is *required* for termination on sticky sets, whose unminimized
  /// resolution closure can accumulate unboundedly many redundant atoms.
  /// An atom is searched for a fold only when some other atom has its
  /// predicate, its constants and answer variables, and its repeated-
  /// variable pattern (an exact necessary condition); the search runs on
  /// the query's one frozen database with that atom excluded, and an atom
  /// once found irredundant is not tested again (see MinimizeCQ).
  bool minimize_disjuncts = true;
  /// Prune rewriting-produced queries that are subsumed (as plain CQs) by
  /// an already-generated rewriting query. Sound and completeness-
  /// preserving for the rewriting *as a UCQ* (prunability of piece-
  /// rewriting operators, König–Leclère–Mugnier); it makes the enumeration
  /// terminate on many guarded ontologies whose unpruned rewriting is
  /// infinite. Off by default to keep XRewrite faithful to Algorithm 1.
  /// The admission scan freezes each newcomer at most once (sharing the
  /// freeze and frozen database with minimization) and searches only the
  /// earlier rewriting entries of the same answer arity that pass two
  /// exact necessary conditions: all their predicates occur in the
  /// newcomer (a 64-bit predicate-signature prefilter; a collision just
  /// falls through), and each of their atoms has a newcomer atom it could
  /// map onto under the fixed answer tuple (the fold filter's checks). No
  /// prune decision depends on either filter.
  bool prune_subsumed = false;
  /// Optional shared request governor (base/governor.h), checked once per
  /// rewriting/factorization step and once before each subsumption search
  /// the prune_subsumed scan runs (an entry the prefilter skips costs no
  /// probe); admitted queries are charged against
  /// its memory budget. A trip is handled exactly like a local budget:
  /// EnumerateRewritings reports kBudgetExhausted (already-reported
  /// disjuncts stay sound), XRewrite returns the trip status. NOT part of
  /// the option digest (cache/cached_ops.cc) — the cached artifact must
  /// not depend on, or capture, the requesting governor. Not owned.
  ResourceGovernor* governor = nullptr;
};

/// Statistics of one XRewrite run.
struct XRewriteStats {
  size_t rewriting_steps = 0;
  size_t factorization_steps = 0;
  size_t queries_generated = 0;
  size_t max_disjunct_atoms = 0;
  /// Candidates dropped because an ≃-equivalent query already existed.
  size_t dedup_hits = 0;
  /// Candidates dropped by subsumption pruning (prune_subsumed only).
  size_t subsumption_prunes = 0;
  /// Subsumption searches the prune_subsumed scan ran (entries skipped by
  /// the predicate-signature or shape filter are not counted).
  size_t subsumption_checks = 0;
  /// Fold searches minimization ran (minimize_disjuncts only; atoms the
  /// fold filter or the irredundant memo settles are not counted).
  size_t minimize_checks = 0;

  void Merge(const XRewriteStats& other) {
    rewriting_steps += other.rewriting_steps;
    factorization_steps += other.factorization_steps;
    queries_generated += other.queries_generated;
    max_disjunct_atoms = std::max(max_disjunct_atoms,
                                  other.max_disjunct_atoms);
    dedup_hits += other.dedup_hits;
    subsumption_prunes += other.subsumption_prunes;
    subsumption_checks += other.subsumption_checks;
    minimize_checks += other.minimize_checks;
  }
};

/// Computes a UCQ rewriting of (S=data_schema, Σ=tgds, q) such that for
/// every database D over `data_schema`: cert(q, D, Σ) = rewriting(D).
///
/// Correct (sound and complete) when Σ belongs to L, NR or S. The tgds are
/// normalized internally (single head atom, at most one existential
/// variable occurring once). If `stats` is non-null it receives run
/// statistics.
Result<UnionOfCQs> XRewrite(const Schema& data_schema, const TgdSet& tgds,
                            const ConjunctiveQuery& q,
                            const XRewriteOptions& options = XRewriteOptions(),
                            XRewriteStats* stats = nullptr);

/// Outcome of an incremental rewriting enumeration.
enum class RewriteEnumeration {
  /// The rewriting saturated: every disjunct was reported, and the reported
  /// UCQ is the complete rewriting (always reached for L, NR, S).
  kSaturated,
  /// A resource budget was hit; the reported disjuncts are sound but the
  /// enumeration is incomplete (typical for recursive guarded ontologies,
  /// whose perfect rewriting is infinite).
  kBudgetExhausted,
  /// The callback requested an early stop.
  kStopped,
};

/// Incremental XRewrite: invokes `on_disjunct` on every data-schema
/// disjunct of the rewriting as soon as it is produced (each reported CQ p
/// satisfies p ⊆ Q soundly for *arbitrary* tgd sets; the enumeration is
/// complete in the limit). The callback returns false to stop early.
/// Unlike XRewrite(), hitting a budget is reported as a regular outcome,
/// not an error — this powers the guarded containment semi-procedure.
/// If `stats` is non-null it receives run statistics.
Result<RewriteEnumeration> EnumerateRewritings(
    const Schema& data_schema, const TgdSet& tgds, const ConjunctiveQuery& q,
    const XRewriteOptions& options,
    const std::function<bool(const ConjunctiveQuery&)>& on_disjunct,
    XRewriteStats* stats = nullptr);

/// Minimizes a single CQ by removing redundant atoms (query elimination,
/// [40]): the result is equivalent to the input and no atom can be dropped
/// without changing the semantics. Each round drops the first redundant
/// atom in body order, so which of two interchangeable atoms survives
/// depends on that order.
ConjunctiveQuery MinimizeCQ(const ConjunctiveQuery& q);

/// The bucket key of XRewrite's ≃-dedup: two rounds of colour refinement
/// over the body (variables start coloured by their answer positions;
/// predicates and constants enter by interned id, so the key is only
/// meaningful within one process). Equal for queries equal up to
/// bijective variable renaming and atom order, provided neither body
/// repeats an atom (every query XRewrite admits is deduplicated);
/// IsomorphicCQs decides within a bucket.
uint64_t DedupBucketKey(const ConjunctiveQuery& q);

/// Removes disjuncts subsumed by another disjunct (p is dropped when some
/// other disjunct p' satisfies p ⊆ p' as plain CQs). Keeps the first
/// representative of each equivalence class. Purely an optimization: the
/// result is an equivalent, often much smaller, UCQ.
UnionOfCQs MinimizeUCQ(const UnionOfCQs& ucq);

/// The analytic bounds f_O(Q) on the maximum disjunct size of a UCQ
/// rewriting, per Prop. 12 (linear), Prop. 14 (non-recursive) and Prop. 17
/// (sticky). Returns 0 for classes without a bound here.
size_t LinearRewriteBound(const ConjunctiveQuery& q);
size_t NonRecursiveRewriteBound(const TgdSet& tgds,
                                const ConjunctiveQuery& q);
size_t StickyRewriteBound(const Schema& data_schema, const TgdSet& tgds,
                          const ConjunctiveQuery& q);

}  // namespace omqc

#endif  // OMQC_REWRITE_XREWRITE_H_
