// Substitutions: finite mappings from variables (and occasionally nulls)
// to terms, applied to atoms, atom lists and queries.

#ifndef OMQC_LOGIC_SUBSTITUTION_H_
#define OMQC_LOGIC_SUBSTITUTION_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "logic/atom.h"

namespace omqc {

/// A finite map Term -> Term. Identity outside its domain. Terms bound to
/// themselves are treated as unbound.
class Substitution {
 public:
  Substitution() = default;

  /// Binds `from` to `to`. Overwrites any previous binding of `from`.
  void Bind(const Term& from, const Term& to) { map_[from] = to; }

  /// Removes every binding.
  void Clear() { map_.clear(); }

  /// The image of `t`: its binding if bound, else `t` itself.
  Term Apply(const Term& t) const {
    auto it = map_.find(t);
    return it == map_.end() ? t : it->second;
  }

  /// The image of `t` chased through chains of bindings (x->y->z gives z).
  /// Used when composing most-general unifiers.
  Term ApplyTransitively(const Term& t) const;

  /// The binding of `t`, or nullopt if unbound.
  std::optional<Term> Lookup(const Term& t) const {
    auto it = map_.find(t);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }

  /// Applies the substitution to every argument of `atom`.
  Atom Apply(const Atom& atom) const;
  /// Applies the substitution to a list of atoms.
  std::vector<Atom> Apply(const std::vector<Atom>& atoms) const;
  /// Applies the substitution to a list of terms.
  std::vector<Term> Apply(const std::vector<Term>& terms) const;

  /// Applies transitively (chain-following) to every argument.
  Atom ApplyTransitively(const Atom& atom) const;
  std::vector<Atom> ApplyTransitively(const std::vector<Atom>& atoms) const;
  std::vector<Term> ApplyTransitively(const std::vector<Term>& terms) const;

  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  const std::unordered_map<Term, Term, TermHash>& bindings() const {
    return map_;
  }

  /// "{X->a, Y->b}" with deterministic ordering.
  std::string ToString() const;

 private:
  std::unordered_map<Term, Term, TermHash> map_;
};

}  // namespace omqc

#endif  // OMQC_LOGIC_SUBSTITUTION_H_
