#include "logic/homomorphism.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>

#include "base/governor.h"
#include "logic/postings_kernels.h"

namespace omqc {
namespace {

using Visitor = std::function<bool(const Substitution&)>;

/// Per-recursion-depth swap space for the k-way candidate intersection.
struct IntersectScratch {
  std::vector<const std::vector<AtomId>*> lists;
  std::vector<AtomId> result;
  std::vector<AtomId> tmp;
};

/// No arena id: Instance reserves this value as its empty-slot marker.
constexpr AtomId kNoAtom = std::numeric_limits<AtomId>::max();

/// The slot of an argument that is not a variable (a constant or a null,
/// which must map to itself).
constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

/// The storage one search runs on. Every search on a thread at the same
/// nesting depth reuses it (see Lease), so once its vectors have grown to
/// the largest search seen, a search allocates nothing.
struct Workspace {
  /// The slot of argument k of atoms[i] is arg_slot[atom_begin[i] + k].
  std::vector<uint32_t> atom_begin;
  std::vector<uint32_t> arg_slot;
  /// The variable behind each slot; slots are numbered in order of first
  /// occurrence in the atoms.
  std::vector<Term> slot_var;
  /// The current image of each slot; an invalid Term means unbound.
  std::vector<Term> image;
  /// Undo trail of freshly bound slots, shared across the recursion: each
  /// frame remembers its watermark and unwinds back to it.
  std::vector<uint32_t> trail;
  /// Indices of the atoms not matched yet.
  std::vector<size_t> remaining;
  /// Intersection buffers, indexed by recursion depth (= atoms matched so
  /// far), sized before the recursion starts.
  std::vector<IntersectScratch> scratch;
  /// The substitution a visitor is handed at each leaf.
  Substitution leaf;
};

/// Leases this thread's workspace for the current nesting depth for the
/// lifetime of one search. A visitor that itself searches runs one level
/// deeper and gets a workspace of its own, so it cannot clobber the
/// bindings of the search that called it.
class Lease {
 public:
  Lease() {
    Stack& stack = ThreadStack();
    if (stack.depth == stack.spaces.size()) {
      stack.spaces.push_back(std::make_unique<Workspace>());
    }
    workspace_ = stack.spaces[stack.depth++].get();
  }
  ~Lease() { --ThreadStack().depth; }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;

  Workspace& workspace() const { return *workspace_; }

 private:
  struct Stack {
    std::vector<std::unique_ptr<Workspace>> spaces;  // by nesting depth
    size_t depth = 0;                                // spaces in use
  };
  static Stack& ThreadStack() {
    thread_local Stack stack;
    return stack;
  }

  Workspace* workspace_ = nullptr;
};

/// The candidate set for one atom under the current bindings. Two layouts:
/// an id list into the target's arena (selective indexes, intersections),
/// or the full predicate postings swept through the packed predicate-major
/// mirror (no bound position at all).
struct CandidateSet {
  const AtomId* ids = nullptr;  ///< id-list mode; null in packed mode
  size_t count = 0;
  bool packed = false;  ///< sweep Instance::Postings(predicate) instead
};

/// Prefetch lookahead inside candidate id loops: far enough to cover the
/// arena load latency, near enough that the line is still resident when
/// the loop reaches it.
constexpr size_t kScanPrefetchDistance = 8;

/// Stride of governor probes inside the backtracking loop: frequent enough
/// to bound overrun (~64 cheap steps), rare enough that the relaxed atomic
/// load stays invisible next to the index lookups (<2% — EXPERIMENTS.md).
constexpr size_t kGovernorStride = 64;

/// One homomorphism search from `atoms` into `target` on a leased
/// workspace. The constructor numbers the variables of `atoms` into slots,
/// all unbound; the Bind* calls seed them; Run or RunPinned explores.
class Search {
 public:
  Search(const std::vector<Atom>& atoms, const Instance& target,
         const HomomorphismOptions& options, Workspace& ws)
      : atoms_(atoms), target_(target), ws_(ws),
        governor_(options.governor), counters_(options.counters) {
    ws_.atom_begin.clear();
    ws_.arg_slot.clear();
    ws_.slot_var.clear();
    for (const Atom& atom : atoms_) {
      ws_.atom_begin.push_back(static_cast<uint32_t>(ws_.arg_slot.size()));
      for (const Term& t : atom.args) {
        uint32_t slot = kNoSlot;
        if (t.IsVariable()) {
          slot = SlotOf(t);
          if (slot == kNoSlot) {
            slot = static_cast<uint32_t>(ws_.slot_var.size());
            ws_.slot_var.push_back(t);
          }
        }
        ws_.arg_slot.push_back(slot);
      }
    }
    ws_.atom_begin.push_back(static_cast<uint32_t>(ws_.arg_slot.size()));
    ws_.image.assign(ws_.slot_var.size(), Term());
    ws_.trail.clear();
    if (ws_.scratch.size() <= atoms_.size()) {
      ws_.scratch.resize(atoms_.size() + 1);
    }
  }

  /// Binds the slot of every variable `seed` binds. The seed's other
  /// bindings (variables outside `atoms`, non-variables) never constrain
  /// the search; they reach the witness through Materialize.
  void BindSeed(const Substitution& seed) {
    seed_ = &seed;
    for (const auto& [from, to] : seed.bindings()) {
      if (!from.IsVariable()) continue;
      const uint32_t slot = SlotOf(from);
      if (slot != kNoSlot) ws_.image[slot] = to;
    }
  }

  /// Binds answer variable i to tuple[i]. False when the tuple clashes
  /// with a constant answer term or a repeated answer variable.
  bool BindAnswer(const std::vector<Term>& vars,
                  const std::vector<Term>& tuple) {
    for (size_t i = 0; i < vars.size(); ++i) {
      const Term& v = vars[i];
      if (!v.IsVariable()) {
        if (v != tuple[i]) return false;
        continue;
      }
      for (size_t j = 0; j < i; ++j) {
        if (vars[j] == v && tuple[j] != tuple[i]) return false;
      }
      const uint32_t slot = SlotOf(v);
      if (slot != kNoSlot) ws_.image[slot] = tuple[i];
    }
    return true;
  }

  /// Hands every homomorphism to `visitor` (until it returns false);
  /// without one, the first homomorphism stops the search and is copied
  /// into `found` when that is non-null.
  void SetLeaf(const Visitor* visitor, Substitution* found) {
    visitor_ = visitor;
    found_ = found;
  }

  /// Most-constrained-first search over every atom. `max_steps` 0 means
  /// unbounded.
  HomSearchOutcome Run(size_t max_steps,
                       std::optional<AtomId> excluded_atom) {
    max_steps_ = max_steps;
    excluded_ = excluded_atom.value_or(kNoAtom);
    ws_.remaining.clear();
    for (size_t i = 0; i < atoms_.size(); ++i) ws_.remaining.push_back(i);
    const bool found = Extend();
    Flush();
    if (found) return HomSearchOutcome::kFound;
    // An exhausted budget means the unexplored remainder could still hold
    // a homomorphism — never report kNotFound in that case.
    return exhausted_ ? HomSearchOutcome::kExhausted
                      : HomSearchOutcome::kNotFound;
  }

  /// The pinned enumeration: atoms[pinned_index] matches only the
  /// `count` ids at `ids`, the other atoms search the target. Every id
  /// carries the pinned atom's predicate (see ForEachHomomorphismPinned).
  void RunPinned(size_t pinned_index, const AtomId* ids, size_t count) {
    ws_.remaining.clear();
    for (size_t i = 0; i < atoms_.size(); ++i) {
      if (i != pinned_index) ws_.remaining.push_back(i);
    }
    for (size_t c = 0; c < count; ++c) {
      if (c + kScanPrefetchDistance < count) {
        target_.PrefetchTerms(ids[c + kScanPrefetchDistance]);
      }
      ++candidates_scanned_;
      if (governor_ != nullptr &&
          candidates_scanned_ % kGovernorStride == 0 &&
          !governor_->Check().ok()) {
        exhausted_ = true;
        break;
      }
      const size_t trail_mark = ws_.trail.size();
      if (TryMatch(pinned_index, target_.view(ids[c]))) Extend();
      Undo(trail_mark);
      if (stop_ || exhausted_) break;
    }
    Flush();
  }

 private:
  /// The slot of variable `v`, or kNoSlot when no atom mentions it. A
  /// linear scan: searches have a handful of variables, and it hashes
  /// nothing.
  uint32_t SlotOf(const Term& v) const {
    for (size_t s = 0; s < ws_.slot_var.size(); ++s) {
      if (ws_.slot_var[s] == v) return static_cast<uint32_t>(s);
    }
    return kNoSlot;
  }

  const uint32_t* SlotsOf(size_t atom_index) const {
    return ws_.arg_slot.data() + ws_.atom_begin[atom_index];
  }

  /// Counts the bound arguments of atoms[atom_index] (constants and nulls
  /// count as bound).
  int BoundArgs(size_t atom_index) const {
    const uint32_t* slots = SlotsOf(atom_index);
    const size_t arity = atoms_[atom_index].args.size();
    int bound = 0;
    for (size_t i = 0; i < arity; ++i) {
      if (slots[i] == kNoSlot || ws_.image[slots[i]].valid()) ++bound;
    }
    return bound;
  }

  /// Builds the candidate set for atoms[atom_index], intersecting the
  /// postings of ALL bound argument positions (multiplicative pruning; the
  /// pre-kernel code scanned the single smallest list). A bound position
  /// with an empty postings list refutes the atom outright: the empty set
  /// is returned immediately and the caller skips even its governor probe.
  CandidateSet BuildCandidates(size_t atom_index, size_t depth) {
    const Atom& atom = atoms_[atom_index];
    const uint32_t* slots = SlotsOf(atom_index);
    IntersectScratch& scratch = ws_.scratch[depth];
    scratch.lists.clear();
    for (size_t i = 0; i < atom.args.size(); ++i) {
      Term image = atom.args[i];
      if (slots[i] != kNoSlot) {
        image = ws_.image[slots[i]];
        // Unbound, or bound by the seed to a variable no atom can carry.
        if (!image.valid() || image.IsVariable()) continue;
      }
      const std::vector<AtomId>& list =
          target_.IdsWithArg(atom.predicate, static_cast<int>(i), image);
      if (list.empty()) return CandidateSet{};  // bound position refutes
      scratch.lists.push_back(&list);
    }
    if (scratch.lists.empty()) {
      // No bound position: full-predicate sweep over the packed mirror.
      CandidateSet set;
      set.packed = true;
      set.count = target_.Postings(atom.predicate).size();
      return set;
    }
    if (scratch.lists.size() == 1) {
      return CandidateSet{scratch.lists[0]->data(), scratch.lists[0]->size(),
                          false};
    }
    const size_t smallest =
        (*std::min_element(scratch.lists.begin(), scratch.lists.end(),
                           [](const std::vector<AtomId>* x,
                              const std::vector<AtomId>* y) {
                             return x->size() < y->size();
                           }))
            ->size();
    IntersectPostingsKWay(scratch.lists, scratch.result, scratch.tmp);
    ++postings_intersections_;
    candidates_pruned_by_intersection_ += smallest - scratch.result.size();
    return CandidateSet{scratch.result.data(), scratch.result.size(), false};
  }

  /// Extends the bindings so that atoms[atom_index] maps onto `candidate`
  /// (a span into the target's arena or a pinned atom), trailing the
  /// freshly bound slots. Returns false (leaving the fresh bindings for
  /// the caller to undo) when the match is infeasible.
  bool TryMatch(size_t atom_index, AtomView candidate) {
    const Atom& atom = atoms_[atom_index];
    const uint32_t* slots = SlotsOf(atom_index);
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Term& to = candidate.arg(i);
      if (slots[i] == kNoSlot) {
        if (atom.args[i] != to) return false;
        continue;
      }
      Term& image = ws_.image[slots[i]];
      if (image.valid()) {
        if (image != to) return false;
        continue;
      }
      image = to;
      ws_.trail.push_back(slots[i]);
    }
    return true;
  }

  /// Unbinds every slot trailed since `mark`.
  void Undo(size_t mark) {
    while (ws_.trail.size() > mark) {
      ws_.image[ws_.trail.back()] = Term();
      ws_.trail.pop_back();
    }
  }

  /// Binds every slot's variable to its image in `out`, which holds the
  /// seed: at a leaf, where all slots are bound, that is the homomorphism.
  void Materialize(Substitution& out) const {
    for (size_t s = 0; s < ws_.slot_var.size(); ++s) {
      out.Bind(ws_.slot_var[s], ws_.image[s]);
    }
  }

  /// Every atom is matched. Returns true (a homomorphism was found).
  bool Leaf() {
    if (visitor_ != nullptr) {
      // Later leaves bind the same slot variables, so the seed is copied
      // in once per search and each leaf only overwrites slot bindings.
      if (!leaf_seeded_) {
        if (seed_->empty()) {
          ws_.leaf.Clear();  // keeps the buckets a copy would reallocate
        } else {
          ws_.leaf = *seed_;
        }
        leaf_seeded_ = true;
      }
      Materialize(ws_.leaf);
      if (!(*visitor_)(ws_.leaf)) stop_ = true;
      return true;
    }
    if (found_ != nullptr) {
      if (found_ != seed_) *found_ = *seed_;
      Materialize(*found_);
    }
    stop_ = true;  // the first homomorphism settles the search
    return true;
  }

  /// Recursive most-constrained-first backtracking over ws_.remaining.
  bool Extend() {
    ++steps_;  // counted even without a budget, for observability
    if (max_steps_ != 0 && steps_ > max_steps_) {
      exhausted_ = true;
      return false;
    }
    std::vector<size_t>& remaining = ws_.remaining;
    if (remaining.empty()) return Leaf();
    // Pick the remaining atom with the most bound arguments.
    size_t best_pos = 0;
    int best_bound = -1;
    for (size_t pos = 0; pos < remaining.size(); ++pos) {
      int bound = BoundArgs(remaining[pos]);
      if (bound > best_bound) {
        best_bound = bound;
        best_pos = pos;
      }
    }
    std::swap(remaining[best_pos], remaining.back());
    const size_t atom_index = remaining.back();
    remaining.pop_back();

    bool found = false;
    const size_t depth = atoms_.size() - remaining.size();
    CandidateSet cands = BuildCandidates(atom_index, depth);
    if (cands.count != 0) {
      // The governor is probed only for candidate sets with work in them:
      // an empty set (e.g. a bound position with no postings) returns
      // without paying for the probe.
      if (governor_ != nullptr && steps_ % kGovernorStride == 0 &&
          !governor_->Check().ok()) {
        exhausted_ = true;
        remaining.push_back(atom_index);
        std::swap(remaining[best_pos], remaining.back());
        return false;
      }
      const size_t trail_mark = ws_.trail.size();
      if (cands.packed) {
        // Unindexed fallback: sweep the predicate through its packed
        // predicate-major mirror — one linear read, no arena striding.
        PostingsSpan span = target_.Postings(atoms_[atom_index].predicate);
        for (size_t j = 0; j < cands.count; ++j) {
          ++candidates_scanned_;
          if (span.id(j) == excluded_) continue;
          if (TryMatch(atom_index, span.view(j)) && Extend()) found = true;
          Undo(trail_mark);
          if (stop_ || exhausted_) break;
        }
      } else {
        for (size_t j = 0; j < cands.count; ++j) {
          if (j + kScanPrefetchDistance < cands.count) {
            target_.PrefetchTerms(cands.ids[j + kScanPrefetchDistance]);
          }
          ++candidates_scanned_;
          if (cands.ids[j] == excluded_) continue;
          if (TryMatch(atom_index, target_.view(cands.ids[j])) && Extend()) {
            found = true;
          }
          Undo(trail_mark);
          if (stop_ || exhausted_) break;
        }
      }
    }

    remaining.push_back(atom_index);
    std::swap(remaining[best_pos], remaining.back());
    return found;
  }

  void Flush() const {
    if (counters_ == nullptr) return;
    ++counters_->searches;
    counters_->steps += steps_;
    counters_->candidates_scanned += candidates_scanned_;
    counters_->postings_intersections += postings_intersections_;
    counters_->candidates_pruned_by_intersection +=
        candidates_pruned_by_intersection_;
    if (exhausted_) ++counters_->budget_exhaustions;
  }

  const std::vector<Atom>& atoms_;
  const Instance& target_;
  Workspace& ws_;
  ResourceGovernor* governor_;
  HomCounters* counters_;
  /// Base of every materialized homomorphism. Set by BindSeed, which every
  /// entry point that passes a visitor or `found` calls.
  const Substitution* seed_ = nullptr;
  const Visitor* visitor_ = nullptr;
  Substitution* found_ = nullptr;
  size_t max_steps_ = 0;
  /// HomomorphismOptions::excluded_atom, or kNoAtom: the candidate loops
  /// skip this id.
  AtomId excluded_ = kNoAtom;
  size_t steps_ = 0;
  size_t candidates_scanned_ = 0;
  size_t postings_intersections_ = 0;
  size_t candidates_pruned_by_intersection_ = 0;
  bool leaf_seeded_ = false;
  bool stop_ = false;       // a visitor asked to stop, or the first hit
  bool exhausted_ = false;  // max_steps budget or governor trip
};

}  // namespace

HomSearchOutcome SearchHomomorphism(const std::vector<Atom>& atoms,
                                    const Instance& target,
                                    const Substitution& seed,
                                    const HomomorphismOptions& options,
                                    Substitution* found) {
  Lease lease;
  Search search(atoms, target, options, lease.workspace());
  search.BindSeed(seed);
  search.SetLeaf(nullptr, found);
  return search.Run(options.max_steps, options.excluded_atom);
}

std::optional<Substitution> FindHomomorphism(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution& seed, const HomomorphismOptions& options) {
  Substitution witness;
  if (SearchHomomorphism(atoms, target, seed, options, &witness) ==
      HomSearchOutcome::kFound) {
    return witness;
  }
  return std::nullopt;
}

void ForEachHomomorphism(const std::vector<Atom>& atoms,
                         const Instance& target, const Substitution& seed,
                         const Visitor& visitor,
                         const HomomorphismOptions& options) {
  Lease lease;
  Search search(atoms, target, options, lease.workspace());
  search.BindSeed(seed);
  search.SetLeaf(&visitor, nullptr);
  // Enumeration is always exhaustive: max_steps is ignored.
  search.Run(/*max_steps=*/0, options.excluded_atom);
}

void ForEachHomomorphismPinned(
    const std::vector<Atom>& atoms, size_t pinned_index,
    const AtomId* pinned_ids, size_t pinned_count, const Instance& target,
    const Substitution& seed, const Visitor& visitor,
    const HomomorphismOptions& options) {
  Lease lease;
  Search search(atoms, target, options, lease.workspace());
  search.BindSeed(seed);
  search.SetLeaf(&visitor, nullptr);
  search.RunPinned(pinned_index, pinned_ids, pinned_count);
}

std::vector<std::vector<Term>> EvaluateCQ(const ConjunctiveQuery& q,
                                          const Instance& instance,
                                          const HomomorphismOptions& options) {
  std::set<std::vector<Term>> answers;
  std::function<bool(const Substitution&)> collect =
      [&](const Substitution& sub) {
        std::vector<Term> tuple = sub.Apply(q.answer_vars);
        for (const Term& t : tuple) {
          if (!t.IsConstant()) return true;  // nulls are not answers
        }
        answers.insert(std::move(tuple));
        return true;
      };
  ForEachHomomorphism(q.body, instance, Substitution(), collect, options);
  return std::vector<std::vector<Term>>(answers.begin(), answers.end());
}

std::vector<std::vector<Term>> EvaluateUCQ(const UnionOfCQs& q,
                                           const Instance& instance,
                                           const HomomorphismOptions& options) {
  std::set<std::vector<Term>> answers;
  for (const ConjunctiveQuery& disjunct : q.disjuncts) {
    if (options.governor != nullptr && options.governor->tripped()) break;
    for (std::vector<Term>& tuple : EvaluateCQ(disjunct, instance, options)) {
      answers.insert(std::move(tuple));
    }
  }
  return std::vector<std::vector<Term>>(answers.begin(), answers.end());
}

HomSearchOutcome TupleInAnswerBudgeted(const ConjunctiveQuery& q,
                                       const Instance& instance,
                                       const std::vector<Term>& tuple,
                                       const HomomorphismOptions& options) {
  if (tuple.size() != q.answer_vars.size()) {
    return HomSearchOutcome::kNotFound;
  }
  Lease lease;
  Search search(q.body, instance, options, lease.workspace());
  if (!search.BindAnswer(q.answer_vars, tuple)) {
    return HomSearchOutcome::kNotFound;
  }
  return search.Run(options.max_steps, options.excluded_atom);
}

bool TupleInAnswer(const ConjunctiveQuery& q, const Instance& instance,
                   const std::vector<Term>& tuple) {
  return TupleInAnswerBudgeted(q, instance, tuple) ==
         HomSearchOutcome::kFound;
}

bool HoldsIn(const ConjunctiveQuery& q, const Instance& instance) {
  return SearchHomomorphism(q.body, instance) == HomSearchOutcome::kFound;
}

bool CQContainedIn(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  if (q1.answer_vars.size() != q2.answer_vars.size()) return false;
  FrozenQuery frozen = Freeze(q1);
  return TupleInAnswer(q2, frozen.database, frozen.answer_tuple);
}

bool UCQContainedIn(const UnionOfCQs& q1, const UnionOfCQs& q2) {
  for (const ConjunctiveQuery& disjunct : q1.disjuncts) {
    FrozenQuery frozen = Freeze(disjunct);
    bool covered = false;
    for (const ConjunctiveQuery& target : q2.disjuncts) {
      if (target.answer_vars.size() == disjunct.answer_vars.size() &&
          TupleInAnswer(target, frozen.database, frozen.answer_tuple)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

}  // namespace omqc
