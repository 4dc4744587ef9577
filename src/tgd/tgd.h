// Tuple-generating dependencies (tgds / existential rules), Sec. 2.

#ifndef OMQC_TGD_TGD_H_
#define OMQC_TGD_TGD_H_

#include <set>
#include <string>
#include <vector>

#include "base/status.h"
#include "logic/atom.h"
#include "logic/cq.h"
#include "logic/substitution.h"

namespace omqc {

/// A tgd φ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄). The body may be empty ("fact tgd",
/// written ⊤ → ∃z̄ ψ). Frontier variables x̄ and existential variables z̄
/// are implicit: a head variable is existential iff it does not occur in
/// the body.
struct Tgd {
  std::vector<Atom> body;
  std::vector<Atom> head;

  Tgd() = default;
  Tgd(std::vector<Atom> b, std::vector<Atom> h)
      : body(std::move(b)), head(std::move(h)) {}

  /// Variables occurring in the body, in order of first occurrence.
  std::vector<Term> BodyVariables() const;
  /// Variables occurring in the head, in order of first occurrence.
  std::vector<Term> HeadVariables() const;
  /// Frontier: head variables that also occur in the body (x̄).
  std::vector<Term> FrontierVariables() const;
  /// Existential variables: head variables not in the body (z̄).
  std::vector<Term> ExistentialVariables() const;
  /// Constants occurring anywhere in the tgd.
  std::set<Term> Constants() const;

  /// Renames all variables apart with suffix "#index" (the σ^i of
  /// Algorithm 1).
  Tgd RenamedApart(int index) const;

  /// "R(X,Y), P(Y) -> T(X,Z)".
  std::string ToString() const;

  bool operator==(const Tgd& other) const {
    return body == other.body && head == other.head;
  }
};

/// A finite set of tgds (an ontology). Kept as a vector for deterministic
/// iteration; helpers expose sch(Σ) and size metrics.
struct TgdSet {
  std::vector<Tgd> tgds;

  TgdSet() = default;
  explicit TgdSet(std::vector<Tgd> rules) : tgds(std::move(rules)) {}

  size_t size() const { return tgds.size(); }
  bool empty() const { return tgds.empty(); }

  /// sch(Σ): all predicates occurring in the tgds.
  Schema SchemaOf() const;
  /// Predicates occurring in some head.
  Schema HeadPredicates() const;
  /// Constants occurring in the tgds: C(Σ) (Prop. 17).
  std::set<Term> Constants() const;
  /// max over tgds of |body| (Prop. 14).
  size_t MaxBodySize() const;
  /// ||Σ||: total number of symbols (predicate + argument occurrences).
  size_t SymbolCount() const;

  std::string ToString() const;
};

/// Checks structural well-formedness: arities match, no nulls, and every
/// frontier variable of each head atom occurs in the body or head
/// (the paper additionally assumes each universally quantified x̄-variable
/// appears in ψ; we do not require that — it is a presentation detail).
Status ValidateTgd(const Tgd& tgd);
Status ValidateTgdSet(const TgdSet& tgds);

/// Normalization (appendix, "we assume tgds are in normal form"): rewrites
/// a set of tgds into an equivalent one in which every tgd has exactly one
/// head atom and at most one existential variable. Auxiliary predicates
/// "Aux_k" carry the frontier. Preserves membership in G, L, NR
/// (for S the transformation is also sticky-safe: auxiliary heads keep all
/// body variables).
TgdSet NormalizeHeads(const TgdSet& tgds, const std::string& aux_prefix);

/// Single-head-atom normal form only (no splitting of multiple existential
/// variables); enough for the chase and XRewrite as implemented here.
TgdSet SingleHeadAtoms(const TgdSet& tgds, const std::string& aux_prefix);

}  // namespace omqc

#endif  // OMQC_TGD_TGD_H_
