// Predicates, atoms and schemas (Sec. 2 of the paper).

#ifndef OMQC_LOGIC_ATOM_H_
#define OMQC_LOGIC_ATOM_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "base/hash_util.h"
#include "logic/term.h"

namespace omqc {

/// An interned relation symbol R/n. 8 bytes, O(1) compare/hash.
class Predicate {
 public:
  Predicate() : id_(-1) {}

  /// Interns (or looks up) the predicate `name` with arity `arity`.
  /// The same name may be interned at several arities; they are distinct
  /// predicates (as in standard relational vocabularies).
  static Predicate Get(const std::string& name, int arity);

  int32_t id() const { return id_; }
  const std::string& name() const;
  int arity() const;

  /// "name/arity".
  std::string ToString() const;

  bool valid() const { return id_ >= 0; }
  bool operator==(const Predicate& other) const { return id_ == other.id_; }
  bool operator!=(const Predicate& other) const { return id_ != other.id_; }
  bool operator<(const Predicate& other) const { return id_ < other.id_; }

 private:
  explicit Predicate(int32_t id) : id_(id) {}
  int32_t id_;
};

/// An atom R(t1,...,tn). Terms may be constants, nulls or variables.
struct Atom {
  Predicate predicate;
  std::vector<Term> args;

  Atom() = default;
  Atom(Predicate p, std::vector<Term> a) : predicate(p), args(std::move(a)) {}

  /// Convenience: R(name, args) with arity deduced from args.
  static Atom Make(const std::string& name, std::vector<Term> args);

  /// True iff every argument is a constant (i.e. this atom is a fact).
  bool IsFact() const;

  /// All variables occurring in the atom, in order of first occurrence.
  std::vector<Term> Variables() const;

  /// "R(t1,...,tn)".
  std::string ToString() const;

  bool operator==(const Atom& other) const {
    return predicate == other.predicate && args == other.args;
  }
  bool operator!=(const Atom& other) const { return !(*this == other); }
  bool operator<(const Atom& other) const {
    if (predicate != other.predicate) return predicate < other.predicate;
    return args < other.args;
  }
};

/// Hash of an atom given as predicate + argument span. The single source of
/// atom hashing: AtomHash and the Instance arena's dedup table both call
/// this, so a materialized Atom and its in-arena view always agree.
inline size_t HashAtomTerms(Predicate p, const Term* args, size_t arity) {
  size_t seed = std::hash<int32_t>{}(p.id());
  for (size_t i = 0; i < arity; ++i) HashCombine(seed, TermHash{}(args[i]));
  return seed;
}

struct AtomHash {
  size_t operator()(const Atom& a) const {
    return HashAtomTerms(a.predicate, a.args.data(), a.args.size());
  }
};

/// A non-owning view of an atom: predicate plus a span of terms, 16 bytes.
/// This is how hot paths (homomorphism candidate scans, chase triggers)
/// read atoms out of an Instance's arena without materializing a
/// heap-allocated Atom. A view is transient: it is invalidated by any
/// mutation of the storage the span points into (for Instance views, by
/// the next Add — exactly like a vector iterator).
class AtomView {
 public:
  AtomView(Predicate predicate, const Term* args, size_t arity)
      : predicate_(predicate), args_(args),
        arity_(static_cast<uint32_t>(arity)) {}

  Predicate predicate() const { return predicate_; }
  size_t arity() const { return arity_; }
  const Term& arg(size_t i) const { return args_[i]; }
  const Term* begin() const { return args_; }
  const Term* end() const { return args_ + arity_; }

  /// Deep copy into an owning Atom (cold paths only).
  Atom Materialize() const {
    return Atom(predicate_, std::vector<Term>(begin(), end()));
  }

  size_t hash() const { return HashAtomTerms(predicate_, args_, arity_); }

  /// Structural equality (predicate and argument terms), not span identity.
  bool operator==(const AtomView& o) const {
    if (predicate_ != o.predicate_ || arity_ != o.arity_) return false;
    for (size_t i = 0; i < arity_; ++i) {
      if (args_[i] != o.args_[i]) return false;
    }
    return true;
  }
  bool operator!=(const AtomView& o) const { return !(*this == o); }

 private:
  Predicate predicate_;
  const Term* args_;
  uint32_t arity_;
};

/// A view of a materialized Atom (valid while `a` is alive and unmoved).
inline AtomView ViewOf(const Atom& a) {
  return AtomView(a.predicate, a.args.data(), a.args.size());
}

/// A schema: a finite set of predicates. Thin wrapper over std::set to give
/// schema-level operations names matching the paper (ar(S), membership...).
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::set<Predicate> preds) : preds_(std::move(preds)) {}

  void Add(Predicate p) { preds_.insert(p); }
  bool Contains(Predicate p) const { return preds_.count(p) > 0; }
  size_t size() const { return preds_.size(); }
  bool empty() const { return preds_.empty(); }

  const std::set<Predicate>& predicates() const { return preds_; }

  /// ar(S): the maximum arity over all predicates (0 for the empty schema).
  int MaxArity() const;

  /// Set union with another schema.
  Schema Union(const Schema& other) const;

  std::string ToString() const;

 private:
  std::set<Predicate> preds_;
};

}  // namespace omqc

namespace std {
template <>
struct hash<omqc::Predicate> {
  size_t operator()(const omqc::Predicate& p) const {
    return std::hash<int32_t>{}(p.id());
  }
};
template <>
struct hash<omqc::Atom> {
  size_t operator()(const omqc::Atom& a) const {
    return omqc::AtomHash{}(a);
  }
};
}  // namespace std

#endif  // OMQC_LOGIC_ATOM_H_
