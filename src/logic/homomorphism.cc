#include "logic/homomorphism.h"

#include <algorithm>
#include <limits>
#include <set>

#include "base/governor.h"
#include "logic/postings_kernels.h"

namespace omqc {
namespace {

/// Counts how many arguments of `atom` are bound under `sub` (constants and
/// nulls count as bound).
int BoundArgs(const Atom& atom, const Substitution& sub) {
  int bound = 0;
  for (const Term& t : atom.args) {
    if (!t.IsVariable() || sub.IsBound(t)) ++bound;
  }
  return bound;
}

/// Per-recursion-depth swap space for the k-way candidate intersection.
/// The buffers live in SearchState (one set per depth, reused across the
/// whole search) so the hot loop never allocates once warmed up.
struct IntersectScratch {
  std::vector<const std::vector<AtomId>*> lists;
  std::vector<AtomId> result;
  std::vector<AtomId> tmp;
};

/// No arena id: Instance reserves this value as its empty-slot marker.
constexpr AtomId kNoAtom = std::numeric_limits<AtomId>::max();

struct SearchState {
  SearchState(const Instance& target_,
              const std::function<bool(const Substitution&)>& visitor_,
              size_t max_steps_, ResourceGovernor* governor_)
      : target(target_), visitor(visitor_), max_steps(max_steps_),
        governor(governor_) {}

  const Instance& target;
  const std::function<bool(const Substitution&)>& visitor;
  size_t max_steps;
  ResourceGovernor* governor = nullptr;
  size_t steps = 0;
  size_t candidates_scanned = 0;
  size_t postings_intersections = 0;
  size_t candidates_pruned_by_intersection = 0;
  /// HomomorphismOptions::excluded_atom, or kNoAtom: the candidate loops
  /// skip this id.
  AtomId excluded = kNoAtom;
  bool visitor_stop = false;  // visitor requested stop
  bool exhausted = false;     // max_steps budget or governor trip
  /// Undo trail of freshly bound variables, shared across the recursion:
  /// each frame remembers its watermark and unwinds back to it, so no
  /// per-candidate vector is ever allocated.
  std::vector<Term> trail;
  /// Intersection buffers, indexed by recursion depth (= atoms matched so
  /// far). Grown lazily; inner heap buffers survive outer resizes, so
  /// pointers into `result.data()` stay valid across deeper recursion.
  std::vector<IntersectScratch> scratch;

  IntersectScratch& ScratchAt(size_t depth) {
    if (scratch.size() <= depth) scratch.resize(depth + 1);
    return scratch[depth];
  }
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

/// Builds the candidate set for `atom` under `sub`, intersecting the
/// postings of ALL bound argument positions (multiplicative pruning; the
/// pre-kernel code scanned the single smallest list). A bound position
/// with an empty postings list refutes the atom outright: the empty set is
/// returned immediately and the caller skips even its governor probe.
CandidateSet BuildCandidates(const Atom& atom, const Substitution& sub,
                             SearchState& state, size_t depth) {
  IntersectScratch& scratch = state.ScratchAt(depth);
  scratch.lists.clear();
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const Term& t = atom.args[i];
    Term image = t.IsVariable() ? sub.Apply(t) : t;
    if (image.IsVariable()) continue;
    const std::vector<AtomId>& list =
        state.target.IdsWithArg(atom.predicate, static_cast<int>(i), image);
    if (list.empty()) return CandidateSet{};  // bound position refutes
    scratch.lists.push_back(&list);
  }
  if (scratch.lists.empty()) {
    // No bound position: full-predicate sweep over the packed mirror.
    CandidateSet set;
    set.packed = true;
    set.count = state.target.Postings(atom.predicate).size();
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
  ++state.postings_intersections;
  state.candidates_pruned_by_intersection += smallest - scratch.result.size();
  return CandidateSet{scratch.result.data(), scratch.result.size(), false};
}

/// Prefetch lookahead inside candidate id loops: far enough to cover the
/// arena load latency, near enough that the line is still resident when
/// the loop reaches it.
constexpr size_t kScanPrefetchDistance = 8;

/// Stride of governor probes inside the backtracking loop: frequent enough
/// to bound overrun (~64 cheap steps), rare enough that the relaxed atomic
/// load stays invisible next to the index lookups (<2% — EXPERIMENTS.md).
constexpr size_t kGovernorStride = 64;

/// Extends `sub` so that `atom` maps onto `candidate` (a span into the
/// target's arena); pushes the freshly bound variables onto `trail`.
/// Returns false (leaving the fresh bindings for the caller to undo) when
/// the match is infeasible.
bool TryMatch(const Atom& atom, AtomView candidate, Substitution& sub,
              std::vector<Term>& trail) {
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const Term& from = atom.args[i];
    const Term& to = candidate.arg(i);
    if (!from.IsVariable()) {
      if (from != to) return false;
      continue;
    }
    auto existing = sub.Lookup(from);
    if (existing.has_value()) {
      if (*existing != to) return false;
      continue;
    }
    sub.Bind(from, to);
    trail.push_back(from);
  }
  return true;
}

/// Recursive most-constrained-first backtracking search. `remaining` holds
/// indices of body atoms not yet matched.
bool Search(const std::vector<Atom>& atoms, std::vector<size_t>& remaining,
            Substitution& sub, SearchState& state) {
  ++state.steps;  // counted even without a budget, for observability
  if (state.max_steps != 0 && state.steps > state.max_steps) {
    state.exhausted = true;
    return false;
  }
  if (remaining.empty()) {
    if (!state.visitor(sub)) state.visitor_stop = true;
    return true;
  }
  // Pick the remaining atom with the most bound arguments.
  size_t best_pos = 0;
  int best_bound = -1;
  for (size_t pos = 0; pos < remaining.size(); ++pos) {
    int bound = BoundArgs(atoms[remaining[pos]], sub);
    if (bound > best_bound) {
      best_bound = bound;
      best_pos = pos;
    }
  }
  std::swap(remaining[best_pos], remaining.back());
  size_t atom_index = remaining.back();
  remaining.pop_back();
  const Atom& atom = atoms[atom_index];

  bool found = false;
  const size_t depth = atoms.size() - remaining.size();
  CandidateSet cands = BuildCandidates(atom, sub, state, depth);
  if (cands.count != 0) {
    // The governor is probed only for candidate sets with work in them:
    // an empty set (e.g. a bound position with no postings) returns
    // without paying for the probe.
    if (state.governor != nullptr && state.steps % kGovernorStride == 0 &&
        !state.governor->Check().ok()) {
      state.exhausted = true;
      remaining.push_back(atom_index);
      std::swap(remaining[best_pos], remaining.back());
      return false;
    }
    const size_t trail_mark = state.trail.size();
    if (cands.packed) {
      // Unindexed fallback: sweep the predicate through its packed
      // predicate-major mirror — one linear read, no arena striding.
      PostingsSpan span = state.target.Postings(atom.predicate);
      for (size_t j = 0; j < cands.count; ++j) {
        ++state.candidates_scanned;
        if (span.id(j) == state.excluded) continue;
        if (TryMatch(atom, span.view(j), sub, state.trail)) {
          if (Search(atoms, remaining, sub, state)) found = true;
        }
        while (state.trail.size() > trail_mark) {
          sub.Unbind(state.trail.back());
          state.trail.pop_back();
        }
        if (state.visitor_stop || state.exhausted) break;
      }
    } else {
      for (size_t j = 0; j < cands.count; ++j) {
        if (j + kScanPrefetchDistance < cands.count) {
          state.target.PrefetchTerms(cands.ids[j + kScanPrefetchDistance]);
        }
        ++state.candidates_scanned;
        if (cands.ids[j] == state.excluded) continue;
        AtomView candidate = state.target.view(cands.ids[j]);
        if (TryMatch(atom, candidate, sub, state.trail)) {
          if (Search(atoms, remaining, sub, state)) found = true;
        }
        while (state.trail.size() > trail_mark) {
          sub.Unbind(state.trail.back());
          state.trail.pop_back();
        }
        if (state.visitor_stop || state.exhausted) break;
      }
    }
  }

  remaining.push_back(atom_index);
  std::swap(remaining[best_pos], remaining.back());
  return found;
}

/// Runs one search and flushes counters. Returns the tri-state verdict.
HomSearchOutcome RunSearch(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution& seed,
    const std::function<bool(const Substitution&)>& visitor,
    const HomomorphismOptions& options, bool* found_any) {
  Substitution sub = seed;
  std::vector<size_t> remaining(atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) remaining[i] = i;
  SearchState state(target, visitor, options.max_steps, options.governor);
  state.excluded = options.excluded_atom.value_or(kNoAtom);
  bool found = Search(atoms, remaining, sub, state);
  if (found_any != nullptr) *found_any = found;
  if (options.counters != nullptr) {
    ++options.counters->searches;
    options.counters->steps += state.steps;
    options.counters->candidates_scanned += state.candidates_scanned;
    options.counters->postings_intersections += state.postings_intersections;
    options.counters->candidates_pruned_by_intersection +=
        state.candidates_pruned_by_intersection;
    if (state.exhausted) ++options.counters->budget_exhaustions;
  }
  if (found) return HomSearchOutcome::kFound;
  // An exhausted budget means the unexplored remainder could still hold a
  // homomorphism — never report kNotFound in that case.
  return state.exhausted ? HomSearchOutcome::kExhausted
                         : HomSearchOutcome::kNotFound;
}

}  // namespace

HomSearchOutcome SearchHomomorphism(const std::vector<Atom>& atoms,
                                    const Instance& target,
                                    const Substitution& seed,
                                    const HomomorphismOptions& options,
                                    Substitution* found) {
  std::function<bool(const Substitution&)> capture =
      [found](const Substitution& sub) {
        if (found != nullptr) *found = sub;
        return false;  // stop after the first hit
      };
  return RunSearch(atoms, target, seed, capture, options, nullptr);
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

void ForEachHomomorphism(
    const std::vector<Atom>& atoms, const Instance& target,
    const Substitution& seed,
    const std::function<bool(const Substitution&)>& visitor,
    const HomomorphismOptions& options) {
  HomomorphismOptions unbounded = options;
  unbounded.max_steps = 0;  // enumeration is always exhaustive
  RunSearch(atoms, target, seed, visitor, unbounded, nullptr);
}

namespace {

/// Shared body of the pinned enumeration: `view_at(i)` yields the i-th
/// pinned candidate as an AtomView (out of `count`), whatever the caller's
/// candidate representation — arena ids or materialized atoms.
/// `kHomogeneous` asserts every candidate already carries the pinned
/// atom's predicate (true for postings-backed id ranges), letting the
/// scan drop the per-candidate predicate filter.
template <bool kHomogeneous, typename ViewAt>
void PinnedImpl(const std::vector<Atom>& atoms, size_t pinned_index,
                size_t count, ViewAt view_at, const Instance& target,
                const Substitution& seed,
                const std::function<bool(const Substitution&)>& visitor,
                const HomomorphismOptions& options) {
  const Atom& pinned = atoms[pinned_index];
  Substitution sub = seed;
  std::vector<size_t> remaining;
  remaining.reserve(atoms.size() - 1);
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i != pinned_index) remaining.push_back(i);
  }
  SearchState state(target, visitor, /*max_steps=*/0, options.governor);
  for (size_t c = 0; c < count; ++c) {
    AtomView candidate = view_at(c);
    if (!kHomogeneous && candidate.predicate() != pinned.predicate) continue;
    ++state.candidates_scanned;
    if (state.governor != nullptr &&
        state.candidates_scanned % kGovernorStride == 0 &&
        !state.governor->Check().ok()) {
      state.exhausted = true;
      break;
    }
    const size_t trail_mark = state.trail.size();
    if (TryMatch(pinned, candidate, sub, state.trail)) {
      Search(atoms, remaining, sub, state);
    }
    while (state.trail.size() > trail_mark) {
      sub.Unbind(state.trail.back());
      state.trail.pop_back();
    }
    if (state.visitor_stop || state.exhausted) break;
  }
  if (options.counters != nullptr) {
    ++options.counters->searches;
    options.counters->steps += state.steps;
    options.counters->candidates_scanned += state.candidates_scanned;
    options.counters->postings_intersections += state.postings_intersections;
    options.counters->candidates_pruned_by_intersection +=
        state.candidates_pruned_by_intersection;
    if (state.exhausted) ++options.counters->budget_exhaustions;
  }
}

}  // namespace

void ForEachHomomorphismPinned(
    const std::vector<Atom>& atoms, size_t pinned_index,
    const std::vector<Atom>& pinned_candidates, const Instance& target,
    const Substitution& seed,
    const std::function<bool(const Substitution&)>& visitor,
    const HomomorphismOptions& options) {
  PinnedImpl</*kHomogeneous=*/false>(
      atoms, pinned_index, pinned_candidates.size(),
      [&](size_t c) { return ViewOf(pinned_candidates[c]); }, target, seed,
      visitor, options);
}

void ForEachHomomorphismPinned(
    const std::vector<Atom>& atoms, size_t pinned_index,
    const std::vector<AtomId>& pinned_ids, const Instance& target,
    const Substitution& seed,
    const std::function<bool(const Substitution&)>& visitor,
    const HomomorphismOptions& options) {
  ForEachHomomorphismPinned(atoms, pinned_index, pinned_ids.data(),
                            pinned_ids.size(), target, seed, visitor,
                            options);
}

void ForEachHomomorphismPinned(
    const std::vector<Atom>& atoms, size_t pinned_index,
    const AtomId* pinned_ids, size_t pinned_count, const Instance& target,
    const Substitution& seed,
    const std::function<bool(const Substitution&)>& visitor,
    const HomomorphismOptions& options) {
  PinnedImpl</*kHomogeneous=*/true>(
      atoms, pinned_index, pinned_count,
      [&](size_t c) {
        if (c + kScanPrefetchDistance < pinned_count) {
          target.PrefetchTerms(pinned_ids[c + kScanPrefetchDistance]);
        }
        return target.view(pinned_ids[c]);
      },
      target, seed, visitor, options);
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
  Substitution seed;
  for (size_t i = 0; i < tuple.size(); ++i) {
    const Term& v = q.answer_vars[i];
    if (!v.IsVariable()) {
      if (v != tuple[i]) return HomSearchOutcome::kNotFound;
      continue;
    }
    auto existing = seed.Lookup(v);
    if (existing.has_value()) {
      if (*existing != tuple[i]) return HomSearchOutcome::kNotFound;
      continue;
    }
    seed.Bind(v, tuple[i]);
  }
  return SearchHomomorphism(q.body, instance, seed, options);
}

bool TupleInAnswer(const ConjunctiveQuery& q, const Instance& instance,
                   const std::vector<Term>& tuple) {
  return TupleInAnswerBudgeted(q, instance, tuple) ==
         HomSearchOutcome::kFound;
}

bool HoldsIn(const ConjunctiveQuery& q, const Instance& instance) {
  return FindHomomorphism(q.body, instance).has_value();
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
