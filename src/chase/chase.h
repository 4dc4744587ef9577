// The chase procedure (Sec. 2, "Tgds and the chase procedure").
//
// Implements the restricted (standard) and oblivious chase with fair
// round-based scheduling, trigger memoization, per-atom derivation levels
// and resource budgets. The restricted chase applies a trigger only when
// the head is not already satisfied; the oblivious chase applies every
// trigger once.
//
// Two trigger-enumeration strategies share the identical application loop:
//
//   * kNaive     — every tgd turn re-enumerates ALL homomorphisms of the
//                  body over the whole instance and discards already-
//                  processed triggers (the reference implementation);
//   * kSemiNaive — delta-driven (the Datalog semi-naive optimization):
//                  each tgd turn enumerates only homomorphisms whose
//                  designated body atom matches an atom derived since the
//                  tgd's previous turn, via ForEachHomomorphismPinned.
//                  Restricted-chase applicability is still checked against
//                  the FULL instance; only trigger discovery is restricted.
//
// Both strategies visit the same trigger set at every turn, so certain
// answers, atoms_per_level, steps and `complete` agree (see DESIGN.md,
// "Semi-naive delta decomposition").

#ifndef OMQC_CHASE_CHASE_H_
#define OMQC_CHASE_CHASE_H_

#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "logic/homomorphism.h"
#include "logic/instance.h"
#include "tgd/tgd.h"

namespace omqc {

enum class ChaseVariant {
  kRestricted,  ///< apply a trigger only if the head is not yet satisfied
  kOblivious,   ///< apply every trigger exactly once
};

enum class ChaseStrategy {
  kNaive,      ///< re-enumerate every trigger each round (reference)
  kSemiNaive,  ///< enumerate only triggers touching newly derived atoms
};

/// Budgets for a chase run. A zero/negative value means "unlimited".
/// The chase under NR (and any weakly-acyclic) sets always terminates; for
/// other classes callers should set a budget.
struct ChaseOptions {
  ChaseVariant variant = ChaseVariant::kRestricted;
  /// Trigger-enumeration strategy. kSemiNaive is observably equivalent and
  /// asymptotically cheaper on multi-round fixpoints; kNaive is kept as
  /// the reference oracle for the equivalence tests.
  ChaseStrategy strategy = ChaseStrategy::kSemiNaive;
  /// Record, for every derived atom, which tgd fired and which atoms the
  /// trigger matched (enables derivation trees / explanations).
  bool track_provenance = false;
  /// Maximum number of chase steps (trigger applications).
  size_t max_steps = 0;
  /// Maximum number of atoms in the chase instance.
  size_t max_atoms = 0;
  /// Maximum derivation level (database atoms are level 0; a derived atom
  /// has level 1 + max level of the trigger's body image).
  int max_level = -1;
  /// Optional tally of the homomorphism searches performed internally
  /// (trigger collection and restricted-chase head checks). Not owned.
  HomCounters* hom_counters = nullptr;
  /// Optional shared request governor (base/governor.h), checked once per
  /// enumerated trigger and once per tgd turn; derived atoms are charged
  /// against its memory budget. A trip truncates the chase exactly like a
  /// local budget (complete=false) and is reported in
  /// ChaseResult::interrupt. Not owned.
  ResourceGovernor* governor = nullptr;
};

/// The outcome of a chase run.
struct ChaseResult {
  Instance instance;
  /// True iff a fixpoint was reached (no applicable trigger remains within
  /// the level budget... i.e. the result is chase(D,Σ), possibly truncated
  /// only if `complete` is false).
  bool complete = false;
  /// Number of trigger applications performed.
  size_t steps = 0;
  /// Number of fixpoint rounds (full passes over the tgd set).
  size_t rounds = 0;
  /// Triggers enumerated across all tgd turns (before the processed-set
  /// filter). The semi-naive strategy exists to shrink this number.
  size_t triggers_enumerated = 0;
  /// Enumerated triggers skipped because they were already processed (for
  /// kNaive: all re-discovered old triggers; for kSemiNaive: only triggers
  /// matched by several delta decompositions).
  size_t redundant_triggers_skipped = 0;
  /// Highest derivation level among produced atoms.
  int max_level_reached = 0;
  /// Number of atoms first derived at each level (index = level).
  std::vector<size_t> atoms_per_level;
  /// Derivation level of each atom, indexed by its AtomId in `instance`
  /// (a column parallel to the arena: ids are dense and assigned in
  /// insertion order, so level_of[id] is the level of instance.view(id)).
  std::vector<int> level_of;
  /// Why an atom exists (only filled with track_provenance): the index of
  /// the tgd that produced it and the ids of the images of the tgd's body
  /// atoms (premises are always atoms of `instance`). Keyed by AtomId;
  /// database atoms have no entry.
  struct Provenance {
    size_t tgd_index = 0;
    std::vector<AtomId> premise_ids;
  };
  std::unordered_map<AtomId, Provenance> provenance;
  /// Provenance lookup by materialized atom (cold paths / tests); null
  /// for database atoms and atoms not in the instance.
  const Provenance* ProvenanceOf(const Atom& atom) const;
  /// OK unless the run was cut short by the request governor, in which
  /// case this holds the trip status (kDeadlineExceeded / kCancelled /
  /// kResourceExhausted) and `complete` is false. The atoms present are
  /// still sound consequences — a governor trip truncates, never corrupts.
  Status interrupt;
};

/// Runs the chase of `database` under `tgds`. Returns a (possibly
/// truncated) result; `result.complete` reports whether the fixpoint was
/// reached. Only returns an error Status for ill-formed inputs. Fresh
/// nulls are numbered from 1 + the largest null id in `database` (from 0
/// for a database), so the output is a pure function of the inputs.
Result<ChaseResult> Chase(const Instance& database, const TgdSet& tgds,
                          const ChaseOptions& options = ChaseOptions());

/// Convenience: certain answers cert(q, D, Σ) = q(chase(D, Σ)) via a
/// complete chase. Returns ResourceExhausted if the budget was hit before
/// the fixpoint — callers for non-terminating classes should prefer the
/// rewriting-based evaluation in src/core.
Result<std::vector<std::vector<Term>>> CertainAnswersViaChase(
    const ConjunctiveQuery& q, const Instance& database, const TgdSet& tgds,
    const ChaseOptions& options = ChaseOptions());

}  // namespace omqc

#endif  // OMQC_CHASE_CHASE_H_
