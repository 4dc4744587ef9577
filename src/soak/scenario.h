// Scenario factory: composable OMQ "tiles" stamped into soak instances
// with known containment polarity.
//
// A scenario is a self-contained Program (ontology + facts + two named
// queries, kLhsQuery/kRhsQuery) built by stitching small gadget tiles into
// a chain of level predicates T0..Tn of fixed arity w — the Wang-tile
// construction from the paper's tiling lower bounds (src/generators/
// tiling), repurposed: each tile's "edge signature" is the (predicate,
// arity) interface it consumes at level i and produces at level i+1, so
// any tile sequence composes. Tiles are drawn per class so the assembled
// ontology provably lands in the requested fragment (linear / sticky /
// non-recursive / guarded).
//
// Polarity certificates, by construction:
//
//   * An *anchor* constant enters at T0 position 1 and every tile
//     preserves position 1 (the walk tile moves the anchor along its own
//     chain of facts), so the final anchor is derivable at Tn — the
//     witness tuple for Q1 and the reason Q1 is non-trivial.
//   * Q1(V1) :- Tn(V1..Vw), Probe(V1)  with a Probe fact on the final
//     anchor. A *contained* scenario picks Q2 as a homomorphic weakening
//     of Q1 (drop the Probe join, unjoin it, or take Q1 verbatim): the
//     identity-on-answer-variables homomorphism Q2 → Q1 certifies
//     Q1 ⊆ Q2 under the shared ontology. A *non-contained* scenario picks
//     Q2 = Q1 ∧ Marker(V1) where Marker appears in no fact and no tgd
//     head: the scenario's own facts are a counterexample database.
//
// Determinism: MakeScenario is a pure function of its spec; the spec's
// seed feeds one SplitMix64 stream (base/rng.h), so (seed, index) alone
// reproduces a scenario bit-for-bit across platforms.

#ifndef OMQC_SOAK_SCENARIO_H_
#define OMQC_SOAK_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/containment.h"
#include "tgd/classify.h"
#include "tgd/parser.h"

namespace omqc {

/// The query names every scenario program carries (and repro files replay:
/// `omqc_cli contain <file> Q1 Q2`).
inline constexpr const char kLhsQuery[] = "Q1";
inline constexpr const char kRhsQuery[] = "Q2";

/// The tile alphabet. Availability depends on the target class and the
/// level width (see scenario.cc's kind table).
enum class TileKind {
  kCopy,       ///< T_i(x̄) → T_{i+1}(x̄)
  kRotate,     ///< permute the non-anchor positions (w ≥ 2)
  kExists,     ///< drop the last position for a fresh existential (w ≥ 2)
  kJoin,       ///< side-join on the anchor: T_i(x̄), Side_i(x1) → T_{i+1}(x̄)
  kForkMerge,  ///< T_i → FkA_i ∧ FkB_i; FkA_i ∧ FkB_i → T_{i+1}
  kWalk,       ///< guarded recursion: collapse to the anchor, walk a fact
               ///< chain of length `walk_depth`, re-expand (guarded only)
};

/// Knobs for one scenario. SpecForIndex derives these from (seed, index);
/// tests construct them directly for targeted shapes.
struct ScenarioSpec {
  uint64_t seed = 1;  ///< per-scenario stream seed (not the master seed)
  TgdClass tgd_class = TgdClass::kLinear;  ///< kLinear / kSticky /
                                           ///< kNonRecursive / kGuarded
  int length = 4;      ///< tiles in the main chain (levels T0..Tlength)
  int width = 2;       ///< level-predicate arity (join width), >= 1
  int walk_depth = 2;  ///< walk-tile chain length (recursion depth)
  int decoy_tiles = 2; ///< tiles of a disconnected decoy chain D0..
  bool contained = true;  ///< polarity: is Q1 ⊆ Q2 by construction?

  std::string ToString() const;
};

/// A generated scenario with its certificates.
struct Scenario {
  ScenarioSpec spec;
  Program program;           ///< tgds + facts + queries Q1, Q2
  std::string program_text;  ///< SerializeProgram(program)
  /// Certificate: this tuple is a certain answer of Q1 over the facts
  /// (the final anchor constant).
  std::vector<Term> witness_tuple;
  /// Polarity oracle: kContained or kNotContained, by construction.
  ContainmentOutcome expected = ContainmentOutcome::kUnknown;
  /// The stamped tile sequence, for logs and repro headers.
  std::vector<TileKind> tiles;
};

/// The spec of the `index`-th scenario of master stream `seed` — class,
/// size and polarity mixing are defined here so a corpus is reproducible
/// from (seed, count) alone.
ScenarioSpec SpecForIndex(uint64_t seed, uint64_t index);

/// Builds the scenario for `spec`. Pure: equal specs yield byte-identical
/// `program_text`.
Scenario MakeScenario(const ScenarioSpec& spec);

/// Does `tgds` satisfy (at least) `target`? Dispatches to the classify
/// predicates; kGeneral/kFull always pass.
bool SatisfiesClass(const TgdSet& tgds, TgdClass target);

}  // namespace omqc

#endif  // OMQC_SOAK_SCENARIO_H_
