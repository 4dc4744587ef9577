#include "cache/canonical.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/hash_util.h"
#include "base/string_util.h"

namespace omqc {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x00000100000001b3ULL;

/// Branch budget for the individualization search. Only highly symmetric
/// queries branch at all; the cap merely bounds pathological inputs (for
/// which the fingerprint stays deterministic but may identify two
/// non-isomorphic members of the same refinement-indistinguishable family).
constexpr size_t kMaxLeaves = 4096;

/// Token tags keeping term sorts and structure kinds in disjoint hash
/// domains.
enum Tag : uint64_t {
  kTagConstant = 0xC0,
  kTagVariable = 0xC1,
  kTagCQ = 0xD0,
  kTagTgd = 0xD1,
  kTagTgdSet = 0xD2,
  kTagSchema = 0xD3,
  kTagUCQ = 0xD4,
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

std::vector<Atom> DedupAtoms(const std::vector<Atom>& atoms) {
  std::vector<Atom> out;
  std::unordered_set<Atom, AtomHash> seen;
  for (const Atom& a : atoms) {
    if (seen.insert(a).second) out.push_back(a);
  }
  return out;
}

/// The canonization engine: color refinement on the variable/atom
/// incidence structure plus individualization-with-backtracking, producing
/// the lexicographically least serialization over all refinement-discrete
/// variable orderings.
class Canonizer {
 public:
  Canonizer(std::vector<Atom> atoms, std::vector<uint8_t> tags,
            std::vector<Term> answer)
      : atoms_(std::move(atoms)),
        tags_(std::move(tags)),
        answer_(std::move(answer)) {
    auto note_var = [this](const Term& t) {
      if (!t.IsVariable()) return;
      if (var_index_.emplace(t, static_cast<int>(vars_.size())).second) {
        vars_.push_back(t);
      }
    };
    for (const Term& t : answer_) note_var(t);
    for (const Atom& a : atoms_) {
      for (const Term& t : a.args) note_var(t);
    }
    occurrences_.resize(vars_.size());
    for (size_t i = 0; i < atoms_.size(); ++i) {
      const Atom& a = atoms_[i];
      for (size_t j = 0; j < a.args.size(); ++j) {
        if (a.args[j].IsVariable()) {
          occurrences_[static_cast<size_t>(var_index_.at(a.args[j]))]
              .emplace_back(static_cast<int>(i), static_cast<int>(j));
        }
      }
    }
  }

  /// Runs refinement + search; afterwards tokens() and PositionOf() are
  /// valid.
  void Run() {
    if (vars_.empty()) {
      best_tokens_ = SerializeWith({});
      return;
    }
    std::vector<uint64_t> colors(vars_.size());
    for (size_t v = 0; v < vars_.size(); ++v) {
      // Initial color: the sorted sequence of answer positions holding
      // this variable (isomorphisms must respect the answer tuple).
      uint64_t h = kFnvOffset;
      for (size_t p = 0; p < answer_.size(); ++p) {
        if (answer_[p].IsVariable() &&
            var_index_.at(answer_[p]) == static_cast<int>(v)) {
          h = Mix64(h, p);
        }
      }
      colors[v] = h;
    }
    Search(std::move(colors));
  }

  const std::vector<uint64_t>& tokens() const { return best_tokens_; }

  /// Canonical position (0-based) of each variable, parallel to vars().
  const std::vector<uint64_t>& positions() const { return best_colors_; }
  const std::vector<Term>& vars() const { return vars_; }
  const std::vector<Atom>& atoms() const { return atoms_; }
  const std::vector<uint8_t>& tags() const { return tags_; }
  const std::vector<Term>& answer() const { return answer_; }

  /// Per-atom canonical sort order of the winning labeling (indices into
  /// atoms(), in canonical emission order).
  std::vector<size_t> CanonicalAtomOrder() const {
    return AtomOrderFor(best_colors_);
  }

 private:
  uint64_t PredicateHash(const Predicate& p) const {
    auto it = pred_hash_.find(p.id());
    if (it != pred_hash_.end()) return it->second;
    uint64_t h = Mix64(HashBytes(p.name()), static_cast<uint64_t>(p.arity()));
    pred_hash_.emplace(p.id(), h);
    return h;
  }

  uint64_t ConstantHash(const Term& t) const {
    auto it = const_hash_.find(t);
    if (it != const_hash_.end()) return it->second;
    uint64_t h = HashBytes(t.ToString());
    const_hash_.emplace(t, h);
    return h;
  }

  static size_t CountClasses(const std::vector<uint64_t>& colors) {
    std::vector<uint64_t> sorted = colors;
    std::sort(sorted.begin(), sorted.end());
    return static_cast<size_t>(
        std::unique(sorted.begin(), sorted.end()) - sorted.begin());
  }

  /// Replaces raw color values by their rank among the sorted distinct
  /// values (0-based). Rank order is isomorphism-invariant because the raw
  /// values are computed from invariant data only.
  static std::vector<uint64_t> NormalizeRanks(std::vector<uint64_t> colors) {
    std::vector<uint64_t> sorted = colors;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (uint64_t& c : colors) {
      c = static_cast<uint64_t>(
          std::lower_bound(sorted.begin(), sorted.end(), c) - sorted.begin());
    }
    return colors;
  }

  /// One refinement step: atom signatures from current colors, then each
  /// variable absorbs the sorted multiset of its (atom signature, position)
  /// incidences. Including the old color makes the partition monotone.
  std::vector<uint64_t> RefineStep(const std::vector<uint64_t>& colors) const {
    std::vector<uint64_t> atom_sig(atoms_.size());
    for (size_t i = 0; i < atoms_.size(); ++i) {
      const Atom& a = atoms_[i];
      uint64_t h = Mix64(kFnvOffset, tags_[i]);
      h = Mix64(h, PredicateHash(a.predicate));
      for (const Term& t : a.args) {
        h = t.IsVariable()
                ? Mix64(Mix64(h, kTagVariable),
                        colors[static_cast<size_t>(var_index_.at(t))])
                : Mix64(Mix64(h, kTagConstant), ConstantHash(t));
      }
      atom_sig[i] = h;
    }
    std::vector<uint64_t> next(colors.size());
    std::vector<uint64_t> incidences;
    for (size_t v = 0; v < colors.size(); ++v) {
      incidences.clear();
      for (const auto& [atom, pos] : occurrences_[v]) {
        incidences.push_back(
            Mix64(atom_sig[static_cast<size_t>(atom)],
                  static_cast<uint64_t>(pos)));
      }
      std::sort(incidences.begin(), incidences.end());
      uint64_t h = Mix64(kFnvOffset, colors[v]);
      for (uint64_t inc : incidences) h = Mix64(h, inc);
      next[v] = h;
    }
    return next;
  }

  /// Refinement to a fixpoint (class count stops growing).
  std::vector<uint64_t> Refine(std::vector<uint64_t> colors) const {
    colors = NormalizeRanks(std::move(colors));
    size_t classes = CountClasses(colors);
    for (size_t round = 0; round <= vars_.size() && classes < vars_.size();
         ++round) {
      std::vector<uint64_t> next = NormalizeRanks(RefineStep(colors));
      size_t next_classes = CountClasses(next);
      colors = std::move(next);
      if (next_classes <= classes) break;
      classes = next_classes;
    }
    return colors;
  }

  void Search(std::vector<uint64_t> colors) {
    if (leaves_ >= kMaxLeaves) return;
    colors = Refine(std::move(colors));
    // First (lowest-rank) class with more than one member, if any.
    std::vector<size_t> class_size(vars_.size(), 0);
    for (uint64_t c : colors) ++class_size[static_cast<size_t>(c)];
    size_t target = vars_.size();
    for (size_t r = 0; r < vars_.size(); ++r) {
      if (class_size[r] > 1) {
        target = r;
        break;
      }
    }
    if (target == vars_.size()) {
      // Discrete coloring: colors are exactly the canonical positions.
      ++leaves_;
      std::vector<uint64_t> tokens = SerializeWith(colors);
      if (best_tokens_.empty() || tokens < best_tokens_) {
        best_tokens_ = std::move(tokens);
        best_colors_ = std::move(colors);
      }
      return;
    }
    // Individualize each member of the target class in turn; the chosen
    // variable is ordered just before its former classmates.
    for (size_t v = 0; v < vars_.size(); ++v) {
      if (colors[v] != target) continue;
      std::vector<uint64_t> branch(colors.size());
      for (size_t u = 0; u < colors.size(); ++u) branch[u] = colors[u] * 2 + 1;
      branch[v] = colors[v] * 2;
      Search(std::move(branch));
    }
  }

  /// Per-atom token sequence under a discrete coloring.
  std::vector<uint64_t> AtomTokens(const Atom& atom, uint8_t tag,
                                   const std::vector<uint64_t>& pos) const {
    std::vector<uint64_t> t;
    t.reserve(atom.args.size() * 2 + 3);
    t.push_back(tag);
    t.push_back(PredicateHash(atom.predicate));
    t.push_back(static_cast<uint64_t>(atom.args.size()));
    for (const Term& a : atom.args) {
      if (a.IsVariable()) {
        t.push_back(kTagVariable);
        t.push_back(pos[static_cast<size_t>(var_index_.at(a))]);
      } else {
        t.push_back(kTagConstant);
        t.push_back(ConstantHash(a));
      }
    }
    return t;
  }

  std::vector<size_t> AtomOrderFor(const std::vector<uint64_t>& pos) const {
    std::vector<std::vector<uint64_t>> keys(atoms_.size());
    for (size_t i = 0; i < atoms_.size(); ++i) {
      keys[i] = AtomTokens(atoms_[i], tags_[i], pos);
    }
    std::vector<size_t> order(atoms_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&keys](size_t a, size_t b) { return keys[a] < keys[b]; });
    return order;
  }

  std::vector<uint64_t> SerializeWith(const std::vector<uint64_t>& pos) const {
    std::vector<uint64_t> tokens;
    tokens.push_back(vars_.size());
    tokens.push_back(answer_.size());
    for (const Term& t : answer_) {
      if (t.IsVariable()) {
        tokens.push_back(kTagVariable);
        tokens.push_back(pos[static_cast<size_t>(var_index_.at(t))]);
      } else {
        tokens.push_back(kTagConstant);
        tokens.push_back(ConstantHash(t));
      }
    }
    tokens.push_back(atoms_.size());
    for (size_t i : AtomOrderFor(pos)) {
      std::vector<uint64_t> at = AtomTokens(atoms_[i], tags_[i], pos);
      tokens.insert(tokens.end(), at.begin(), at.end());
    }
    return tokens;
  }

  std::vector<Atom> atoms_;
  std::vector<uint8_t> tags_;
  std::vector<Term> answer_;
  std::vector<Term> vars_;
  std::unordered_map<Term, int, TermHash> var_index_;
  std::vector<std::vector<std::pair<int, int>>> occurrences_;
  mutable std::unordered_map<int32_t, uint64_t> pred_hash_;
  mutable std::unordered_map<Term, uint64_t, TermHash> const_hash_;
  std::vector<uint64_t> best_tokens_;
  std::vector<uint64_t> best_colors_;
  size_t leaves_ = 0;
};

Canonizer CanonizeCQParts(const ConjunctiveQuery& q) {
  std::vector<Atom> atoms = DedupAtoms(q.body);
  std::vector<uint8_t> tags(atoms.size(), 0);
  Canonizer canon(std::move(atoms), std::move(tags), q.answer_vars);
  canon.Run();
  return canon;
}

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

std::string Fingerprint::ToHex() const {
  static const char* digits = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<size_t>(15 - i)] = digits[(hi >> (4 * i)) & 0xF];
    out[static_cast<size_t>(31 - i)] = digits[(lo >> (4 * i)) & 0xF];
  }
  return out;
}

CanonicalCQ CanonicalizeCQ(const ConjunctiveQuery& q) {
  Canonizer canon = CanonizeCQParts(q);
  CanonicalCQ out;
  out.fingerprint = HashTokens(kTagCQ, canon.tokens());
  // Rename variable at canonical position p to "X<p>" and emit atoms in
  // canonical order.
  const std::vector<Term>& vars = canon.vars();
  const std::vector<uint64_t>& pos = canon.positions();
  Substitution rename;
  for (size_t v = 0; v < vars.size(); ++v) {
    rename.Bind(vars[v], Term::Variable(StrCat("X", pos[v])));
  }
  for (const Term& t : canon.answer()) {
    out.query.answer_vars.push_back(rename.Apply(t));
  }
  for (size_t i : canon.CanonicalAtomOrder()) {
    out.query.body.push_back(rename.Apply(canon.atoms()[i]));
  }
  return out;
}

Fingerprint FingerprintCQ(const ConjunctiveQuery& q) {
  Canonizer canon = CanonizeCQParts(q);
  return HashTokens(kTagCQ, canon.tokens());
}

Fingerprint FingerprintUCQ(const UnionOfCQs& ucq) {
  std::vector<Fingerprint> parts;
  parts.reserve(ucq.disjuncts.size());
  for (const ConjunctiveQuery& d : ucq.disjuncts) {
    parts.push_back(FingerprintCQ(d));
  }
  return FoldSortedFingerprints(kTagUCQ, std::move(parts));
}

Fingerprint FingerprintTgd(const Tgd& tgd) {
  std::vector<Atom> atoms = DedupAtoms(tgd.body);
  std::vector<uint8_t> tags(atoms.size(), 0);
  for (const Atom& h : DedupAtoms(tgd.head)) {
    atoms.push_back(h);
    tags.push_back(1);
  }
  Canonizer canon(std::move(atoms), std::move(tags), {});
  canon.Run();
  return HashTokens(kTagTgd, canon.tokens());
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

Fingerprint FingerprintUcqOmqParts(const Schema& data_schema,
                                   const TgdSet& tgds, const UnionOfCQs& ucq) {
  Fingerprint s = FingerprintSchema(data_schema);
  Fingerprint t = FingerprintTgdSet(tgds);
  Fingerprint u = FingerprintUCQ(ucq);
  return HashTokens(kTagOmq, {s.hi, s.lo, t.hi, t.lo, u.hi, u.lo});
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
