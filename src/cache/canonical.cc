#include "cache/canonical.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "base/hash_util.h"

namespace omqc {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x00000100000001b3ULL;

/// Token tags keeping term sorts and structure kinds in disjoint hash
/// domains.
enum Tag : uint64_t {
  kTagConstant = 0xC0,
  kTagVariable = 0xC1,
  kTagBody = 0xB0,
  kTagHead = 0xB1,
  kTagCQ = 0xD0,
  kTagTgd = 0xD1,
  kTagTgdSet = 0xD2,
  kTagSchema = 0xD3,
  kTagOmq = 0xD5,
  kTagDatabase = 0xD6,
};

/// FNV-1a over bytes; stable across processes (never hash interned ids).
uint64_t HashBytes(const std::string& s) {
  uint64_t h = kFnvOffset;
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// Folds `v` into `h` through a splitmix64 avalanche.
uint64_t Mix64(uint64_t h, uint64_t v) {
  return (h ^ omqc::Mix64(v)) * kFnvPrime + 0x2545f4914f6cdd1dULL;
}

Fingerprint HashTokens(uint64_t kind, const std::vector<uint64_t>& tokens) {
  Fingerprint fp;
  fp.hi = Mix64(Mix64(0x8e51'2af0'6c35'9d21ULL, kind), tokens.size());
  fp.lo = Mix64(Mix64(0x1b87'3c95'e4d2'07afULL, kind), tokens.size());
  for (uint64_t t : tokens) {
    fp.hi = Mix64(fp.hi, t);
    fp.lo = (fp.lo ^ t) * kFnvPrime + (fp.lo >> 7);
  }
  return fp;
}

/// The token stream of a structure under first-occurrence numbering: the
/// k-th distinct variable met is variable k, predicates and constants are
/// hashed by name. A consistent variable renaming leaves the stream
/// unchanged; reordering atoms or answer variables changes it. Each list
/// is prefixed by its length and each atom by its predicate (which fixes
/// its argument count), so the stream parses back unambiguously.
class FirstOccurrenceTokens {
 public:
  void AddTerms(const std::vector<Term>& terms) {
    tokens_.push_back(terms.size());
    for (const Term& t : terms) AddTerm(t);
  }

  void AddAtoms(uint64_t tag, const std::vector<Atom>& atoms) {
    tokens_.push_back(tag);
    tokens_.push_back(atoms.size());
    for (const Atom& a : atoms) {
      tokens_.push_back(Mix64(HashBytes(a.predicate.name()),
                              static_cast<uint64_t>(a.predicate.arity())));
      for (const Term& t : a.args) AddTerm(t);
    }
  }

  Fingerprint Finish(uint64_t kind) const {
    return HashTokens(kind, tokens_);
  }

 private:
  void AddTerm(const Term& t) {
    if (!t.IsVariable()) {
      tokens_.push_back(kTagConstant);
      tokens_.push_back(HashBytes(t.ToString()));
      return;
    }
    // A linear scan: queries and tgds have a handful of variables.
    size_t k = 0;
    while (k < vars_.size() && vars_[k] != t) ++k;
    if (k == vars_.size()) vars_.push_back(t);
    tokens_.push_back(kTagVariable);
    tokens_.push_back(k);
  }

  std::vector<uint64_t> tokens_;
  std::vector<Term> vars_;
};

Fingerprint FoldSortedFingerprints(uint64_t kind,
                                   std::vector<Fingerprint> parts) {
  std::sort(parts.begin(), parts.end());
  std::vector<uint64_t> tokens;
  tokens.reserve(parts.size() * 2);
  for (const Fingerprint& fp : parts) {
    tokens.push_back(fp.hi);
    tokens.push_back(fp.lo);
  }
  return HashTokens(kind, tokens);
}

}  // namespace

Fingerprint FingerprintCQ(const ConjunctiveQuery& q) {
  FirstOccurrenceTokens tokens;
  tokens.AddTerms(q.answer_vars);
  tokens.AddAtoms(kTagBody, q.body);
  return tokens.Finish(kTagCQ);
}

Fingerprint FingerprintTgd(const Tgd& tgd) {
  FirstOccurrenceTokens tokens;
  tokens.AddAtoms(kTagBody, tgd.body);
  tokens.AddAtoms(kTagHead, tgd.head);
  return tokens.Finish(kTagTgd);
}

Fingerprint FingerprintTgdSet(const TgdSet& tgds) {
  std::vector<Fingerprint> parts;
  parts.reserve(tgds.size());
  for (const Tgd& t : tgds.tgds) parts.push_back(FingerprintTgd(t));
  return FoldSortedFingerprints(kTagTgdSet, std::move(parts));
}

Fingerprint FingerprintSchema(const Schema& schema) {
  // Schema::predicates() is an ordered std::set, but by interned id; hash
  // and sort by name/arity for cross-process stability.
  std::vector<uint64_t> tokens;
  tokens.reserve(schema.size());
  for (const Predicate& p : schema.predicates()) {
    uint64_t h = HashBytes(p.name());
    tokens.push_back(Mix64(h, static_cast<uint64_t>(p.arity())));
  }
  std::sort(tokens.begin(), tokens.end());
  return HashTokens(kTagSchema, tokens);
}

Fingerprint FingerprintOmqParts(const Schema& data_schema, const TgdSet& tgds,
                                const ConjunctiveQuery& q) {
  Fingerprint s = FingerprintSchema(data_schema);
  Fingerprint t = FingerprintTgdSet(tgds);
  Fingerprint c = FingerprintCQ(q);
  return HashTokens(kTagOmq, {s.hi, s.lo, t.hi, t.lo, c.hi, c.lo});
}

Fingerprint FingerprintDatabase(const Database& db) {
  std::vector<uint64_t> tokens;
  tokens.reserve(db.size());
  for (AtomId id = 0; id < db.size(); ++id) {
    AtomView v = db.view(static_cast<AtomId>(id));
    uint64_t h = Mix64(HashBytes(v.predicate().name()),
                       static_cast<uint64_t>(v.arity()));
    for (const Term& t : v) {
      // Facts are null-free, so every argument has a stable name.
      h = Mix64(h, HashBytes(t.ToString()));
    }
    tokens.push_back(h);
  }
  // Set semantics: sort so insertion order does not matter.
  std::sort(tokens.begin(), tokens.end());
  return HashTokens(kTagDatabase, tokens);
}

}  // namespace omqc
