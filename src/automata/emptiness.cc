#include "automata/emptiness.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "automata/downward.h"
#include "automata/stateset.h"
#include "base/governor.h"
#include "base/string_util.h"

namespace omqc {

namespace {

/// Governor probe stride inside a set's label-expansion loop, matching the
/// homomorphism scan kernels (DESIGN.md "Governor check-site placement").
constexpr int kGovernorStride = 64;

/// Lazy (state,label) → minimal-models table. The underlying
/// DownwardDnfCache gives sharing within one formula tree; this dense
/// memo is the cross-call win, because Twapa::delta builds a fresh tree
/// per invocation so node-pointer keys never repeat across calls.
class TransitionOracle {
 public:
  TransitionOracle(const Twapa* automaton, size_t max_disjuncts)
      : automaton_(automaton), max_disjuncts_(max_disjuncts) {}

  Result<const std::vector<DownwardDisjunct>*> Models(int state, int label) {
    const uint64_t key =
        static_cast<uint64_t>(state) *
            static_cast<uint64_t>(automaton_->num_labels) +
        static_cast<uint64_t>(label);
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
    Formula f = automaton_->delta(state, label);
    // The pointer aims into cache_'s own storage: entries are never
    // erased and unordered_map references are rehash-stable, so it
    // outlives every use (cache_ and memo_ share this oracle's lifetime).
    OMQC_ASSIGN_OR_RETURN(const std::vector<DownwardDisjunct>* models,
                          cache_.MinimalModels(f, max_disjuncts_));
    memo_.emplace(key, models);
    return models;
  }

  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }

 private:
  const Twapa* automaton_;
  size_t max_disjuncts_;
  DownwardDnfCache cache_;
  std::unordered_map<uint64_t, const std::vector<DownwardDisjunct>*> memo_;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

DownwardDisjunct MergeDisjuncts(const DownwardDisjunct& a,
                                const DownwardDisjunct& b) {
  DownwardDisjunct out;
  out.existential.reserve(a.existential.size() + b.existential.size());
  std::set_union(a.existential.begin(), a.existential.end(),
                 b.existential.begin(), b.existential.end(),
                 std::back_inserter(out.existential));
  out.universal.reserve(a.universal.size() + b.universal.size());
  std::set_union(a.universal.begin(), a.universal.end(), b.universal.begin(),
                 b.universal.end(), std::back_inserter(out.universal));
  return out;
}

/// The result of expanding one obligation set across every label: either
/// some (label, disjunct) is satisfied by a leaf, or the ⊆-minimized
/// disjuncts of ALL labels merged into one list. The merge is sound
/// because a disjunct constrains only the child subtrees — which label
/// the node itself carries is an independent existential choice — and a
/// subsuming disjunct's children are subsets of the subsumed one's, so
/// their productivity is implied by monotonicity.
struct Expansion {
  bool leaf = false;
  std::vector<DownwardDisjunct> disjuncts;
};

Result<Expansion> ExpandSet(const Twapa& automaton,
                            const std::vector<int>& members,
                            TransitionOracle& oracle,
                            const DownwardOptions& options) {
  Expansion out;
  std::vector<DownwardDisjunct> models;
  std::vector<DownwardDisjunct> next;
  for (int label = 0; label < automaton.num_labels; ++label) {
    if (options.governor != nullptr && label % kGovernorStride == 0) {
      OMQC_RETURN_IF_ERROR(options.governor->Check());
    }
    // Product of the members' minimal models, minimized as it grows.
    models.assign(1, DownwardDisjunct{});  // neutral element: true
    bool falsified = false;
    for (int q : members) {
      OMQC_ASSIGN_OR_RETURN(const std::vector<DownwardDisjunct>* qm,
                            oracle.Models(q, label));
      if (qm->empty()) {  // δ(q, label) ≡ false kills the label
        falsified = true;
        break;
      }
      next.clear();
      for (const DownwardDisjunct& a : models) {
        for (const DownwardDisjunct& b : *qm) {
          AddMinimized(next, MergeDisjuncts(a, b));
          if (next.size() > options.max_disjuncts) {
            return Status::ResourceExhausted("DNF blow-up");
          }
        }
      }
      models.swap(next);
    }
    if (falsified) continue;
    for (DownwardDisjunct& d : models) {
      if (static_cast<int>(d.existential.size()) > options.max_branching) {
        return Status::InvalidArgument(
            "a disjunct needs more children than max_branching");
      }
      if (d.existential.empty()) {
        // A leaf discharges the disjunct: universal obligations are
        // vacuous with no children. The set is productive outright.
        out.leaf = true;
        out.disjuncts.clear();
        return out;
      }
      AddMinimized(out.disjuncts, std::move(d));
      if (out.disjuncts.size() > options.max_disjuncts) {
        return Status::ResourceExhausted("DNF blow-up");
      }
    }
  }
  return out;
}

/// See the header's file comment for the algorithm.
class AntichainEngine {
 public:
  AntichainEngine(const Twapa& automaton, const DownwardOptions& options)
      : automaton_(automaton),
        options_(options),
        arena_(automaton.num_states),
        antichain_(&arena_),
        oracle_(&automaton, options.max_disjuncts),
        word_buf_(arena_.words_per_set(), 0) {}

  Result<bool> Run();

  /// Final counters (valid after Run, including on error returns).
  EmptinessStats Stats() const {
    EmptinessStats out = stats_;
    out.antichain_size = antichain_.size();
    out.dnf_cache_hits = oracle_.hits();
    out.dnf_cache_misses = oracle_.misses();
    return out;
  }

 private:
  static constexpr uint8_t kProductive = 1;

  /// Marks `id` productive, grows the antichain, and queues `id` so the
  /// cascade re-checks its recorded parents. Returns true iff `id` is the
  /// initial set (=> the language is non-empty, early exit).
  bool MarkProductive(StateSetId id) {
    if ((status_[id] & kProductive) != 0) return false;
    status_[id] |= kProductive;
    antichain_.Insert(id);
    pending_queue_.push_back(id);
    return id == init_id_;
  }

  /// Interns one child obligation set; brand-new sets are either proven
  /// productive by antichain subsumption on the spot or queued for
  /// expansion. Every created set is thereby always accounted for.
  Result<StateSetId> InternChild(const uint64_t* base, int extra,
                                 std::vector<StateSetId>& out_frontier,
                                 bool& done) {
    const size_t before = arena_.size();
    StateSetId child = arena_.InternUnion(base, extra);
    if (arena_.size() > before) {
      if (arena_.size() > options_.max_states) {
        return Status::ResourceExhausted(
            StrCat("more than ", options_.max_states, " obligation sets"));
      }
      status_.push_back(0);
      groups_.push_back({});
      parents_.push_back({});
      if (antichain_.SubsumedBy(child)) {
        ++stats_.states_subsumed;
        if (MarkProductive(child)) done = true;
      } else {
        out_frontier.push_back(child);
      }
    }
    return child;
  }

  /// Folds one set's expansion into the engine state: leaf-productive
  /// sets join the antichain, others record their child groups (the set
  /// becomes productive when some group is entirely productive).
  Status MergeExpansion(StateSetId id, Expansion expansion,
                        std::vector<StateSetId>& out_frontier, bool& done) {
    ++stats_.states_explored;
    if (expansion.leaf) {
      if (MarkProductive(id)) done = true;
      return Status::OK();
    }
    std::vector<std::vector<StateSetId>> groups;
    groups.reserve(expansion.disjuncts.size());
    for (const DownwardDisjunct& d : expansion.disjuncts) {
      std::fill(word_buf_.begin(), word_buf_.end(), 0);
      for (int u : d.universal) {
        word_buf_[static_cast<size_t>(u) / 64] |=
            uint64_t{1} << (static_cast<size_t>(u) % 64);
      }
      std::vector<StateSetId> children;
      for (int e : d.existential) {
        if (std::binary_search(d.universal.begin(), d.universal.end(), e)) {
          continue;  // univ ∪ {e} == univ: covered by the maximal children
        }
        OMQC_ASSIGN_OR_RETURN(
            StateSetId child,
            InternChild(word_buf_.data(), e, out_frontier, done));
        children.push_back(child);
      }
      if (children.empty()) {
        // Every existential obligation is already universal: the one
        // (maximal) child is the universal set itself.
        OMQC_ASSIGN_OR_RETURN(
            StateSetId child,
            InternChild(word_buf_.data(), -1, out_frontier, done));
        children.push_back(child);
      }
      std::sort(children.begin(), children.end());
      children.erase(std::unique(children.begin(), children.end()),
                     children.end());
      groups.push_back(std::move(children));
    }
    // Assign after the interning above: groups_ may have reallocated.
    groups_[id] = std::move(groups);
    // Eager resolution: a group whose children are all already productive
    // fires now. Otherwise reverse edges are recorded from each not-yet-
    // productive child, so the cascade re-checks this set exactly when one
    // of those children turns productive — O(edges) total, never a rescan
    // of every unresolved set. Edges from already-productive children are
    // pointless (a set is marked at most once) and skipped.
    if (HasProductiveGroup(id)) {
      if (MarkProductive(id)) done = true;
      return Status::OK();
    }
    for (const std::vector<StateSetId>& children : groups_[id]) {
      for (StateSetId c : children) {
        if ((status_[c] & kProductive) == 0) {
          parents_[c].push_back(id);
          ++parent_edges_;
        }
      }
    }
    return Status::OK();
  }

  /// True iff some child group of `id` is entirely productive.
  bool HasProductiveGroup(StateSetId id) const {
    for (const std::vector<StateSetId>& children : groups_[id]) {
      bool all = true;
      for (StateSetId c : children) {
        if ((status_[c] & kProductive) == 0) {
          all = false;
          break;
        }
      }
      if (all) return true;
    }
    return false;
  }

  Status Cascade(bool& done);
  Status ExpandBatch(const std::vector<StateSetId>& batch,
                     std::vector<StateSetId>& out_frontier, bool& done);

  /// Accounts arena growth against the governor's memory budget.
  Status ChargeArenaGrowth() {
    if (options_.governor == nullptr) return Status::OK();
    const size_t now = arena_.MemoryBytes() +
                       status_.capacity() * sizeof(uint8_t) +
                       parent_edges_ * sizeof(StateSetId);
    if (now <= charged_bytes_) return Status::OK();
    const size_t delta = now - charged_bytes_;
    charged_bytes_ = now;
    return options_.governor->ChargeBytes(delta);
  }

  const Twapa& automaton_;
  const DownwardOptions& options_;
  StateSetArena arena_;
  Antichain antichain_;
  std::vector<uint8_t> status_;  ///< per StateSetId, kProductive flag
  /// Per set, the alternatives for becoming productive: each group is the
  /// (maximal) children of one disjunct and fires when all are productive.
  std::vector<std::vector<std::vector<StateSetId>>> groups_;
  /// Reverse dependencies: parents_[c] lists the expanded sets that
  /// reference c in some child group and were not resolvable when the
  /// edge was recorded. Duplicates across groups are possible and
  /// harmless (HasProductiveGroup is idempotent).
  std::vector<std::vector<StateSetId>> parents_;
  /// Freshly productive sets whose parents the cascade has yet to
  /// re-check.
  std::vector<StateSetId> pending_queue_;
  TransitionOracle oracle_;
  std::vector<uint64_t> word_buf_;  ///< scratch: one set of words
  StateSetId init_id_ = 0;
  size_t charged_bytes_ = 0;
  size_t parent_edges_ = 0;  ///< total reverse edges, for memory charging
  EmptinessStats stats_;
};

Status AntichainEngine::ExpandBatch(const std::vector<StateSetId>& batch,
                                    std::vector<StateSetId>& out_frontier,
                                    bool& done) {
  std::vector<int> members;
  for (StateSetId id : batch) {
    if (done) return Status::OK();
    if (options_.governor != nullptr) {
      OMQC_RETURN_IF_ERROR(options_.governor->Check());
    }
    // Re-check: merging earlier batch items may have grown the antichain
    // past this set — subsumed sets are never expanded.
    if ((status_[id] & kProductive) != 0) continue;
    if (antichain_.SubsumedBy(id)) {
      ++stats_.states_subsumed;
      if (MarkProductive(id)) done = true;
      continue;
    }
    members.clear();
    arena_.ForEachState(id, [&](int q) { members.push_back(q); });
    OMQC_ASSIGN_OR_RETURN(
        Expansion expansion,
        ExpandSet(automaton_, members, oracle_, options_));
    OMQC_RETURN_IF_ERROR(
        MergeExpansion(id, std::move(expansion), out_frontier, done));
  }
  return Status::OK();
}

Status AntichainEngine::Cascade(bool& done) {
  // Pops a freshly productive set and re-checks its recorded parents;
  // MarkProductive re-queues, so the full transitive closure drains in
  // one call. Pure bookkeeping (word-sized loads and subset-of-status
  // checks), cheap next to expansion.
  size_t pops = 0;
  while (!pending_queue_.empty() && !done) {
    const StateSetId id = pending_queue_.back();
    pending_queue_.pop_back();
    if (options_.governor != nullptr && pops++ % kGovernorStride == 0) {
      OMQC_RETURN_IF_ERROR(options_.governor->Check());
    }
    for (StateSetId parent : parents_[id]) {
      if ((status_[parent] & kProductive) != 0) continue;
      if (HasProductiveGroup(parent)) {
        if (MarkProductive(parent)) {
          done = true;
          break;
        }
      }
    }
  }
  return Status::OK();
}

Result<bool> AntichainEngine::Run() {
  init_id_ = arena_.InternSingleton(automaton_.initial_state);
  status_.assign(arena_.size(), 0);
  groups_.resize(arena_.size());
  parents_.resize(arena_.size());

  bool done = false;  // latched when the initial set is proven productive
  std::vector<StateSetId> frontier{init_id_};
  std::vector<StateSetId> batch;
  std::vector<StateSetId> next_frontier;
  while (!frontier.empty() && !done) {
    ++stats_.emptiness_rounds;
    // Filter: subsumed or already-productive sets are never expanded.
    batch.clear();
    for (StateSetId id : frontier) {
      if ((status_[id] & kProductive) != 0) continue;
      if (antichain_.SubsumedBy(id)) {
        ++stats_.states_subsumed;
        if (MarkProductive(id)) done = true;
        continue;
      }
      batch.push_back(id);
    }
    frontier.clear();
    if (!done && !batch.empty()) {
      next_frontier.clear();
      OMQC_RETURN_IF_ERROR(ExpandBatch(batch, next_frontier, done));
      frontier.swap(next_frontier);
      OMQC_RETURN_IF_ERROR(ChargeArenaGrowth());
    }
    // Drain the cascade: every set that turned productive during this
    // round re-checks exactly its recorded parents (MergeExpansion
    // resolves already-fireable groups eagerly, so only fresh marks can
    // unlock expanded sets).
    if (!done && !pending_queue_.empty()) {
      OMQC_RETURN_IF_ERROR(Cascade(done));
    }
  }
  return (status_[init_id_] & kProductive) == 0;
}

}  // namespace

Result<bool> DownwardEmptiness(const Twapa& automaton,
                               const DownwardOptions& options,
                               EmptinessStats* stats) {
  if (automaton.mode != AcceptanceMode::kFiniteRuns) {
    return Status::Unsupported(
        "the antichain engine targets finite-runs (all-priorities-odd) "
        "automata");
  }
  AntichainEngine engine(automaton, options);
  Result<bool> verdict = engine.Run();
  if (stats != nullptr) *stats = engine.Stats();
  return verdict;
}

}  // namespace omqc
