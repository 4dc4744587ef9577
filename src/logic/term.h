// Terms: constants, labeled nulls and variables (Sec. 2 of the paper).
//
// Terms are small value types backed by a process-wide interning table, so
// equality and hashing are O(1) integer operations. The interning tables
// are synchronized: the server (src/server/server.cc) runs requests, which
// intern terms, on several worker threads.
//
// Nulls are not interned: a null is an id, numbered by whoever mints it
// (the chase starts above the largest null of its input). Constant names
// starting with '@' are reserved for the engine (DESIGN.md "Term lifetime").

#ifndef OMQC_LOGIC_TERM_H_
#define OMQC_LOGIC_TERM_H_

#include <cstdint>
#include <functional>
#include <string>

#include "base/hash_util.h"

namespace omqc {

/// The three disjoint term sorts C (constants), N (nulls), V (variables).
enum class TermKind : uint8_t {
  kConstant = 0,
  kNull = 1,
  kVariable = 2,
};

/// An interned term. Copyable, 8 bytes, O(1) compare/hash.
class Term {
 public:
  Term() : kind_(TermKind::kConstant), id_(-1) {}

  /// Interns (or looks up) the constant named `name`.
  static Term Constant(const std::string& name);
  /// Interns (or looks up) the variable named `name`.
  static Term Variable(const std::string& name);
  /// Returns the null with the given id; equal ids are the same null.
  static Term NullWithId(int32_t id);

  TermKind kind() const { return kind_; }
  int32_t id() const { return id_; }

  bool IsConstant() const { return kind_ == TermKind::kConstant; }
  bool IsNull() const { return kind_ == TermKind::kNull; }
  bool IsVariable() const { return kind_ == TermKind::kVariable; }

  /// True iff this term came from one of the factories above. The default
  /// constructor yields an *invalid* kConstant with id -1 — without this
  /// check it is indistinguishable from a real constant in comparisons
  /// (mirrors Predicate::valid()). Instance::Add asserts validity in debug
  /// builds.
  bool valid() const { return id_ >= 0; }

  /// The name this term was interned under; nulls render as "_:n<id>".
  std::string ToString() const;

  bool operator==(const Term& other) const {
    return kind_ == other.kind_ && id_ == other.id_;
  }
  bool operator!=(const Term& other) const { return !(*this == other); }
  /// Arbitrary-but-total order (kind, id); used for canonical sorting.
  bool operator<(const Term& other) const {
    if (kind_ != other.kind_) return kind_ < other.kind_;
    return id_ < other.id_;
  }

 private:
  Term(TermKind kind, int32_t id) : kind_(kind), id_(id) {}

  TermKind kind_;
  int32_t id_;
};

struct TermHash {
  size_t operator()(const Term& t) const {
    size_t seed = static_cast<size_t>(t.kind());
    HashCombine(seed, static_cast<size_t>(t.id()));
    return seed;
  }
};

}  // namespace omqc

namespace std {
template <>
struct hash<omqc::Term> {
  size_t operator()(const omqc::Term& t) const {
    return omqc::TermHash{}(t);
  }
};
}  // namespace std

#endif  // OMQC_LOGIC_TERM_H_
