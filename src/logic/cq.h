// Conjunctive queries and unions of conjunctive queries (Sec. 2).

#ifndef OMQC_LOGIC_CQ_H_
#define OMQC_LOGIC_CQ_H_

#include <set>
#include <string>
#include <vector>

#include "base/status.h"
#include "logic/instance.h"
#include "logic/substitution.h"

namespace omqc {

/// A conjunctive query q(x̄) := ∃ȳ (R1(v̄1) ∧ ... ∧ Rm(v̄m)).
/// `answer_vars` is x̄ (possibly with repeated variables and constants,
/// as produced by rewriting); all other body variables are existential.
struct ConjunctiveQuery {
  std::vector<Term> answer_vars;
  std::vector<Atom> body;

  ConjunctiveQuery() = default;
  ConjunctiveQuery(std::vector<Term> answers, std::vector<Atom> atoms)
      : answer_vars(std::move(answers)), body(std::move(atoms)) {}

  bool IsBoolean() const { return answer_vars.empty(); }

  /// Number of body atoms (|q| in the paper).
  size_t size() const { return body.size(); }

  /// All variables of the query in order of first occurrence
  /// (answer variables first).
  std::vector<Term> Variables() const;

  /// Variables occurring in the body but not among the answer variables.
  std::vector<Term> ExistentialVariables() const;

  /// Variables that are *shared* in the XRewrite sense (Sec. "Algorithm
  /// XRewrite"): free, or occurring more than once in the body (counting
  /// multiple occurrences inside one atom).
  std::set<Term> SharedVariables() const;

  /// All terms (constants and variables) occurring in the query: T(q).
  std::set<Term> AllTerms() const;

  /// Constants occurring anywhere in the query.
  std::set<Term> Constants() const;

  /// Applies a substitution to body and answer tuple.
  ConjunctiveQuery Substituted(const Substitution& s) const;

  /// Renames every variable with the prefix+counter scheme, returning a
  /// variable-disjoint copy ("q^i" in XRewrite).
  ConjunctiveQuery RenamedApart(int index) const;

  /// Component decomposition of the body, per Sec. 7.1 (co(q)). Atoms with
  /// no arguments are dropped. Each component keeps the answer variables
  /// that occur in it.
  std::vector<ConjunctiveQuery> Components() const;

  /// "q(X,Y) :- R(X,Z), S(Z,Y)".
  std::string ToString() const;

  bool operator==(const ConjunctiveQuery& other) const {
    return answer_vars == other.answer_vars && body == other.body;
  }
};

/// The frozen (canonical) database of a CQ: every variable is replaced by a
/// distinct fresh constant. Used by the small-witness containment algorithm
/// (proof of Prop. 10) and by chase-based CQ containment.
struct FrozenQuery {
  Database database;
  /// The image of the answer tuple under freezing.
  std::vector<Term> answer_tuple;
};

/// Freezes `q`, mapping each variable X to the constant "@f_X": a pure
/// function of `q`, distinct from every constant a program can name (the
/// parser reserves '@'), so a repeated freeze interns nothing new.
FrozenQuery Freeze(const ConjunctiveQuery& q);

/// The substitution Freeze applies to `q` (X ↦ "@f_X" for every variable
/// of q). Applying it atom by atom yields Freeze(q).database's atoms in
/// body order, so a caller can build the frozen database of q minus one
/// atom without freezing again.
Substitution FreezingOf(const ConjunctiveQuery& q);

/// A union of conjunctive queries q1(x̄) ∨ ... ∨ qn(x̄).
struct UnionOfCQs {
  std::vector<ConjunctiveQuery> disjuncts;

  UnionOfCQs() = default;
  explicit UnionOfCQs(std::vector<ConjunctiveQuery> ds)
      : disjuncts(std::move(ds)) {}

  bool empty() const { return disjuncts.empty(); }
  size_t size() const { return disjuncts.size(); }

  /// max_i |q_i|: the maximum number of atoms in a disjunct.
  size_t MaxDisjunctSize() const;

  std::string ToString() const;
};

/// Checks that a CQ is well-formed: every answer variable occurs in the
/// body, and atom arities match their predicates.
Status ValidateCQ(const ConjunctiveQuery& q);

/// Structural equivalence modulo bijective variable renaming (the ≃ of
/// Algorithm 1). Constants must match exactly; answer tuples must correspond.
bool IsomorphicCQs(const ConjunctiveQuery& a, const ConjunctiveQuery& b);

}  // namespace omqc

#endif  // OMQC_LOGIC_CQ_H_
