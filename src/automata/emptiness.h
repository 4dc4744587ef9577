// On-the-fly emptiness for downward 2WAPAs: the antichain-pruned,
// memoized engine for the guarded containment pipeline's Prop. 21/25
// reductions.
//
// The reference path (automata/downward.h, DownwardIsEmpty) materializes
// the FULL subset construction — every reachable obligation set, every
// rule — and only then runs NTA emptiness; tests keep it as this engine's
// oracle. This engine decides the same question without building the
// NTA, by computing the least fixpoint of "productive" obligation sets
// directly:
//
//   Prod(S) ⟺ ∃ label ℓ, ∃ disjunct d of DNF(⋀_{q∈S} δ(q,ℓ)):
//               ex(d) = ∅  (a leaf satisfies d — universal obligations
//                           are vacuous with no children)
//               or ∀ e ∈ ex(d): Prod(univ(d) ∪ {e}),
//
// and L(A) = ∅ iff ¬Prod({s0}). Three structural facts make it fast:
//
//  1. Monotonicity. S ⊆ T implies Prod(T) ⟹ Prod(S): fewer obligations
//     are easier to satisfy. The productive family is downward closed, so
//     it is represented by the antichain of its ⊆-maximal members
//     (automata/stateset.h): a candidate subsumed by an antichain member
//     is productive WITHOUT expansion, and disjuncts/children that are
//     supersets of others are dropped before they spawn work.
//  2. Interning. Obligation sets are hash-consed flat bitsets named by
//     dense ids; the productivity memo is a flat byte array indexed by
//     id, and subset tests are word ops (vs. the reference's std::set
//     copies and lexicographic map lookups).
//  3. Memoization. δ(q,ℓ) minimal models are computed once per
//     (state,label) and cached (automata/pbf.h DownwardDnfCache); set-
//     level DNFs are ⊆-minimized products of the per-state models.
//
// Productivity propagates through a reverse-dependency worklist: every
// interned set records which parents reference it in a child group, and a
// freshly productive set re-checks exactly those parents — O(edges)
// total, never a rescan of all unresolved sets.
//
// Governor probes follow the DESIGN.md placement rules: once per expanded
// obligation set, every 64 label expansions within a set, and every 64
// cascade pops. The engine early-exits as soon as the initial set is
// proven productive.

#ifndef OMQC_AUTOMATA_EMPTINESS_H_
#define OMQC_AUTOMATA_EMPTINESS_H_

#include <cstddef>

#include "automata/downward.h"
#include "automata/twapa.h"
#include "base/status.h"

namespace omqc {

/// Observability counters of one emptiness run (tests and bench_guarded
/// read them); plain tallies.
struct EmptinessStats {
  size_t states_explored = 0;   ///< obligation sets expanded
  size_t states_subsumed = 0;   ///< sets proven productive by antichain
                                ///< subsumption, never expanded
  size_t antichain_size = 0;    ///< ⊆-maximal productive sets at the end
  /// Expansion rounds of the main fixpoint loop (one per frontier batch).
  size_t emptiness_rounds = 0;
  size_t dnf_cache_hits = 0;    ///< per-(state,label) minimal-model reuses
  size_t dnf_cache_misses = 0;  ///< minimal-model computations
};

/// Exact emptiness of a downward finite-runs 2WAPA (within budgets):
/// true iff L(automaton) = ∅, the question DownwardIsEmpty answers by the
/// full subset construction (`max_states` bounds the interned obligation
/// sets here). Returns Unsupported for up/stay moves or safety acceptance,
/// ResourceExhausted when a budget is hit, or the governor's trip status.
/// `stats`, when non-null, is overwritten (not accumulated) by every run
/// that gets far enough to count anything. Not owned.
Result<bool> DownwardEmptiness(const Twapa& automaton,
                               const DownwardOptions& options =
                                   DownwardOptions(),
                               EmptinessStats* stats = nullptr);

}  // namespace omqc

#endif  // OMQC_AUTOMATA_EMPTINESS_H_
