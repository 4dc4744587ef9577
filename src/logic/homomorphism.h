// Homomorphism search: the CQ evaluation engine (Sec. 2).
//
// The evaluator is a backtracking join over the instance's per-predicate and
// per-(predicate,position,term) indexes, picking at each step the body atom
// with the most bound arguments (most-constrained-first). Per atom, the
// candidate set is the k-way sorted-postings INTERSECTION over all bound
// argument positions (src/logic/postings_kernels.h): candidates shrink
// multiplicatively with each bound position instead of scanning the single
// smallest list, any empty bound position refutes the atom outright, and a
// fully unbound atom sweeps the predicate through its packed predicate-major
// postings (Instance::Postings). This is the workhorse behind chase
// applicability checks, certain-answer computation, CQ containment and the
// small-witness containment algorithm.
//
// Bindings: a search numbers the variables of its atoms into dense slots
// (first-occurrence order) and keeps their images, undo trail and
// intersection buffers in a workspace that every search on the same thread
// at the same nesting depth reuses, so a warmed-up search neither hashes a
// Term nor allocates. A visitor that itself searches gets the next
// workspace down; threads never share one. A Substitution is built only
// at a leaf — for the visitor, or for `*found` — and holds the seed's
// bindings plus every slot's image (DESIGN.md "Homomorphism search
// bindings").
//
// Budget semantics: a bounded search (max_steps > 0) has THREE outcomes —
// found / exhaustively refuted / stopped at the budget. The tri-state
// SearchHomomorphism / TupleInAnswerBudgeted entry points report which one
// occurred; callers that need soundness (the containment engine) map
// kExhausted to an "unknown" verdict, never to a negative answer. The
// bool/optional wrappers below run unbounded and are always exact.

#ifndef OMQC_LOGIC_HOMOMORPHISM_H_
#define OMQC_LOGIC_HOMOMORPHISM_H_

#include <functional>
#include <optional>
#include <vector>

#include "logic/cq.h"
#include "logic/instance.h"
#include "logic/substitution.h"

namespace omqc {

class ResourceGovernor;

/// Observability counters for homomorphism searches. Accumulated (never
/// reset) by every search that is handed a non-null pointer; not
/// synchronized — use one instance per thread and merge (EngineStats does).
struct HomCounters {
  /// Number of searches run.
  size_t searches = 0;
  /// Backtracking steps (recursive extension attempts) across searches.
  size_t steps = 0;
  /// Candidate atoms scanned across all index lookups.
  size_t candidates_scanned = 0;
  /// Searches that stopped at their max_steps budget.
  size_t budget_exhaustions = 0;
  /// k-way sorted-postings intersections performed (one per candidate set
  /// built from >= 2 bound argument positions).
  size_t postings_intersections = 0;
  /// Candidates the intersection removed relative to the single smallest
  /// postings list (the pre-kernel heuristic's scan set): the atoms the
  /// backtracking loop never had to touch.
  size_t candidates_pruned_by_intersection = 0;

  void Merge(const HomCounters& other) {
    searches += other.searches;
    steps += other.steps;
    candidates_scanned += other.candidates_scanned;
    budget_exhaustions += other.budget_exhaustions;
    postings_intersections += other.postings_intersections;
    candidates_pruned_by_intersection +=
        other.candidates_pruned_by_intersection;
  }
};

/// Options controlling a homomorphism search.
struct HomomorphismOptions {
  /// Upper bound on backtracking steps; 0 means unlimited. A search that
  /// hits the bound reports HomSearchOutcome::kExhausted — it does NOT
  /// claim non-existence (see the header comment).
  size_t max_steps = 0;
  /// Optional counters to accumulate into (may be null).
  HomCounters* counters = nullptr;
  /// Optional shared request governor (base/governor.h). Consulted every
  /// 64th backtracking step; a trip surfaces as kExhausted, exactly like
  /// hitting max_steps — it removes information, never flips a verdict.
  ResourceGovernor* governor = nullptr;
  /// An atom of the target that no atom may map onto, or none. Searching
  /// with it set searches the target minus that atom without building a
  /// second instance (MinimizeCQ tests every atom of a query against one
  /// frozen database this way). Honored by every entry point except
  /// ForEachHomomorphismPinned, whose pinned candidates are the caller's
  /// to choose.
  std::optional<AtomId> excluded_atom;
};

/// The three possible verdicts of a budgeted search.
enum class HomSearchOutcome {
  kFound,      ///< a homomorphism exists (witness produced)
  kNotFound,   ///< the search space was exhausted: none exists
  kExhausted,  ///< max_steps hit before a conclusion — NOT a refutation
};

/// Finds one homomorphism h from `atoms` into `target` extending `seed`
/// (h is the identity on constants; nulls in `atoms` are treated as
/// constants, i.e. they must map to themselves). On kFound, `*found` (when
/// non-null) receives the witness.
HomSearchOutcome SearchHomomorphism(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution& seed = Substitution(),
    const HomomorphismOptions& options = HomomorphismOptions(),
    Substitution* found = nullptr);

/// Unbounded convenience wrapper: returns the witness or nullopt, exactly.
/// (Budgeted callers must use SearchHomomorphism: with max_steps set this
/// wrapper cannot distinguish refutation from exhaustion.)
std::optional<Substitution> FindHomomorphism(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution& seed = Substitution(),
    const HomomorphismOptions& options = HomomorphismOptions());

/// Enumerates all homomorphisms from `atoms` into `target` extending `seed`,
/// invoking `visitor` for each; the visitor returns false to stop early.
/// `options.max_steps` is ignored (enumeration is always exhaustive);
/// `options.counters` is honored.
void ForEachHomomorphism(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution& seed,
    const std::function<bool(const Substitution&)>& visitor,
    const HomomorphismOptions& options = HomomorphismOptions());

/// Like ForEachHomomorphism, but the designated atom `atoms[pinned_index]`
/// draws its candidate matches from the `pinned_count` arena ids of
/// `target` at `pinned_ids` instead of the target's index, while every
/// other atom still matches inside `target`. This is the
/// delta-decomposition primitive of the semi-naive chase: with the ids of
/// the atoms derived in the previous round, only homomorphisms whose
/// designated atom uses a new atom are enumerated. The chase hands in
/// subranges of the per-predicate or by-arg postings directly (its delta
/// window is a contiguous id range — see PostingsIdRange /
/// Instance::ArgIdRange), with no copy. Every id must carry the pinned
/// atom's predicate (postings-backed ranges do): the scan has no
/// per-candidate predicate filter. A homomorphism matched by several
/// pinned positions is reported once per position (callers dedupe, e.g.
/// by trigger key).
void ForEachHomomorphismPinned(
    const std::vector<Atom>& atoms, size_t pinned_index,
    const AtomId* pinned_ids, size_t pinned_count, const Instance& target,
    const Substitution& seed,
    const std::function<bool(const Substitution&)>& visitor,
    const HomomorphismOptions& options = HomomorphismOptions());

/// Evaluates q over I: the set of answer tuples h(x̄) for homomorphisms h
/// from the body into I with h(x̄) consisting of constants only
/// (paper Sec. 2: the evaluation q(I) collects constant tuples).
/// For Boolean q the result contains one empty tuple iff I |= q.
/// `options.max_steps` is ignored (evaluation enumerates exhaustively);
/// counters and the governor are honored. If the governor trips the
/// returned answer set may be incomplete — callers that need completeness
/// check `options.governor->tripped()` afterwards (every answer returned
/// is still sound).
std::vector<std::vector<Term>> EvaluateCQ(
    const ConjunctiveQuery& q, const Instance& instance,
    const HomomorphismOptions& options = HomomorphismOptions());

/// Evaluates a UCQ: union of the disjunct evaluations, deduplicated.
/// Same options/governor contract as EvaluateCQ.
std::vector<std::vector<Term>> EvaluateUCQ(
    const UnionOfCQs& q, const Instance& instance,
    const HomomorphismOptions& options = HomomorphismOptions());

/// Budgeted membership test "tuple ∈ q(I)". kExhausted means the search
/// stopped at options.max_steps without a verdict.
HomSearchOutcome TupleInAnswerBudgeted(
    const ConjunctiveQuery& q, const Instance& instance,
    const std::vector<Term>& tuple,
    const HomomorphismOptions& options = HomomorphismOptions());

/// True iff tuple ∈ q(I). Unbounded, always exact.
bool TupleInAnswer(const ConjunctiveQuery& q, const Instance& instance,
                   const std::vector<Term>& tuple);

/// True iff the Boolean reading of q holds in I (∃ homomorphism; answer
/// variables existentially quantified). Unlike EvaluateCQ this does not
/// require answer images to be constants.
bool HoldsIn(const ConjunctiveQuery& q, const Instance& instance);

/// Classical CQ containment q1 ⊆ q2 (no ontology): freeze q1 and test
/// whether the frozen answer tuple is in q2(D_{q1}) (Chandra–Merlin).
bool CQContainedIn(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

/// UCQ containment: every disjunct of q1 is contained in some... more
/// precisely, in the union (Sagiv–Yannakakis: q1 ⊆ q2 iff each disjunct of
/// q1 is contained in some disjunct of q2).
bool UCQContainedIn(const UnionOfCQs& q1, const UnionOfCQs& q2);

}  // namespace omqc

#endif  // OMQC_LOGIC_HOMOMORPHISM_H_
