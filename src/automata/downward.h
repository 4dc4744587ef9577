// Emptiness for downward 2WAPAs via alternating → nondeterministic
// conversion (the finite-tree instance of Vardi's construction).
//
// A 2WAPA is *downward* when every transition atom moves to children
// (Move::kChild) — the consistency and query automata of the Sec. 5 toy
// pipeline are of this shape. For downward automata with finite-runs
// acceptance, emptiness reduces exactly to NTA emptiness through a subset
// construction: an NTA state is the set of obligations pending at a node,
// and each DNF disjunct of the conjoined transition formulas yields a
// rule that sends every existential obligation to its own child and
// copies the universal obligations everywhere.
//
// The conversion is witness-preserving: L(nta) ⊆ L(twapa), and
// L(nta) = ∅ iff L(twapa) = ∅ (any accepting run can be normalized into
// the spread-out shape). It is exponential in the state count — the
// paper's Prop. 25 pays the same price — so the API carries budgets.

#ifndef OMQC_AUTOMATA_DOWNWARD_H_
#define OMQC_AUTOMATA_DOWNWARD_H_

#include "automata/twapa.h"
#include "base/status.h"

namespace omqc {

class ResourceGovernor;

/// Budgets for the subset construction below.
struct DownwardOptions {
  /// Maximum number of reachable obligation sets (NTA states).
  size_t max_states = 4096;
  /// Maximum number of DNF disjuncts per conjoined transition formula.
  size_t max_disjuncts = 4096;
  /// Branching bound of the produced rules (existential obligations
  /// beyond this are rejected as InvalidArgument — the paper's Lemma 53
  /// bounds branching by the state count, so pass at least that).
  int max_branching = 16;
  /// Optional shared request governor (base/governor.h), checked once per
  /// worklist item and per label expansion; a trip surfaces as its trip
  /// status (kDeadlineExceeded / kCancelled / kResourceExhausted) from
  /// DownwardToNta/DownwardIsEmpty. Not owned.
  ResourceGovernor* governor = nullptr;
};

/// Converts a downward finite-runs 2WAPA into an NTA with
/// L(nta) non-empty iff L(twapa) non-empty. Returns Unsupported when the
/// automaton uses up/stay moves or safety acceptance, ResourceExhausted
/// when a budget is hit.
Result<Nta> DownwardToNta(const Twapa& automaton,
                          const DownwardOptions& options = DownwardOptions());

/// Exact emptiness of a downward finite-runs 2WAPA (within budgets).
/// Note: only *emptiness* transfers through the normalization; the
/// infinity problem of Sec. 7.2 needs the language-equal conversion and
/// is provided at the NTA level (IsInfinite) for directly constructed
/// automata.
Result<bool> DownwardIsEmpty(const Twapa& automaton,
                             const DownwardOptions& options =
                                 DownwardOptions());

}  // namespace omqc

#endif  // OMQC_AUTOMATA_DOWNWARD_H_
