// Recognizers for the tgd classes of the paper (Sec. 2):
// linear (L), guarded (G), non-recursive (NR), sticky (S), full (F),
// plus the weak variants mentioned in Sec. 3.1 for diagnostics.

#ifndef OMQC_TGD_CLASSIFY_H_
#define OMQC_TGD_CLASSIFY_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "tgd/tgd.h"

namespace omqc {

/// The OMQ-language tgd classes used for dispatching containment
/// strategies. Ordered roughly by generality within each family.
enum class TgdClass {
  kEmpty,         ///< Σ = ∅ (the O_∅ language of Sec. 3.1).
  kLinear,        ///< L: single body atom.
  kGuarded,       ///< G: some body atom guards all body variables.
  kNonRecursive,  ///< NR: acyclic predicate graph.
  kSticky,        ///< S: the marking procedure admits Σ.
  kFull,          ///< F: no existential variables (Datalog).
  kGeneral,       ///< TGD: none of the above.
};

const char* TgdClassToString(TgdClass c);

/// True iff every tgd has at most one body atom.
bool IsLinear(const TgdSet& tgds);

/// True iff every tgd with a non-empty body has a guard: a body atom
/// containing every body variable.
bool IsGuarded(const TgdSet& tgds);

/// True iff no tgd has existential variables (full tgds / Datalog).
bool IsFull(const TgdSet& tgds);

/// True iff the predicate graph (edges body-predicate -> head-predicate)
/// is acyclic. Equivalent to stratifiability (Lemma 32).
bool IsNonRecursive(const TgdSet& tgds);

/// True iff Σ passes the sticky test (Defs. 4 and 5; Figure 1): no marked
/// variable occurs more than once in a body.
bool IsSticky(const TgdSet& tgds);

/// The marked (tgd index, variable) pairs computed by the inductive marking
/// procedure of Def. 4. Exposed for tests, diagnostics and the Figure 1
/// bench.
struct StickyMarking {
  /// marked[i] = set of body variables of tgds[i] that are marked in Σ.
  std::vector<std::set<Term>> marked;
  /// Number of fixpoint rounds until convergence.
  int rounds = 0;
};
StickyMarking ComputeStickyMarking(const TgdSet& tgds);

/// A stratification {Σ1,...,Σn} per Definition 3, or nullopt if Σ is
/// recursive. `stratum_of[p]` is µ(p); tgd i belongs to stratum
/// `tgd_stratum[i]`.
struct Stratification {
  std::map<Predicate, int> stratum_of;
  std::vector<int> tgd_stratum;
  int num_strata = 0;
};
std::optional<Stratification> Stratify(const TgdSet& tgds);

/// Positions (R, i) of sch(Σ) that may receive labeled nulls during the
/// chase ("affected positions"; used by the weak classes).
std::set<std::pair<Predicate, int>> AffectedPositions(const TgdSet& tgds);

/// Frontier-guardedness (the paper's concluding section names it as the
/// natural extension of guardedness): some body atom contains all
/// *frontier* variables (body variables that also occur in the head).
/// Every guarded set is frontier-guarded.
bool IsFrontierGuarded(const TgdSet& tgds);

/// Weak variants (Sec. 3.1): relax the respective condition to affected
/// positions only. Containment for these is undecidable (Prop. 8) but the
/// recognizers are useful diagnostics.
bool IsWeaklyGuarded(const TgdSet& tgds);
bool IsWeaklyAcyclic(const TgdSet& tgds);
bool IsWeaklySticky(const TgdSet& tgds);

/// Full classification report.
struct ClassificationReport {
  bool empty = false;
  bool linear = false;
  bool guarded = false;
  bool full = false;
  bool non_recursive = false;
  bool sticky = false;
  bool frontier_guarded = false;
  bool weakly_guarded = false;
  bool weakly_acyclic = false;
  bool weakly_sticky = false;

  std::string ToString() const;
};
ClassificationReport Classify(const TgdSet& tgds);

/// The most specific class from {kEmpty, kLinear, kGuarded, kNonRecursive,
/// kSticky, kFull, kGeneral} for dispatching containment procedures, with
/// preference order L > NR > S > G > F (UCQ-rewritable and cheaper first).
TgdClass PrimaryClass(const TgdSet& tgds);

/// The classification facts the evaluation dispatcher (src/core/eval.h)
/// needs.
struct TgdProfile {
  TgdClass primary = TgdClass::kEmpty;
  bool full = false;
  bool non_recursive = false;

  /// True when the restricted chase provably reaches a fixpoint.
  bool ChaseTerminates() const { return full || non_recursive; }
};

/// Classifies `tgds`. Never cached: classifying again is cheaper than
/// fingerprinting the set for a cache lookup (EXPERIMENTS.md "CACHE").
TgdProfile GetTgdProfile(const TgdSet& tgds);

/// True iff the OMQ language (C, CQ) is UCQ-rewritable (Sec. 4): L, NR, S.
bool IsUcqRewritableClass(TgdClass c);

}  // namespace omqc

#endif  // OMQC_TGD_CLASSIFY_H_
