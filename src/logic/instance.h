// Instances and databases (Sec. 2 of the paper).
//
// An Instance is a finite set of atoms over constants and nulls, with
// per-predicate and per-(predicate,position,term) indexes that back the
// homomorphism search engine. A database is an instance whose atoms are
// facts (null-free); `IsDatabase()` checks this.
//
// Storage is columnar (DESIGN.md "Atom storage layout"): every atom is
// stored exactly once in an append-only arena — one contiguous Term pool
// plus a 12-byte {Predicate, offset, arity} record per atom — and every
// side structure (dedup table, per-predicate and per-argument indexes,
// insertion order) is a postings list of 32-bit atom ids. Callers read
// atoms as AtomView spans via `view(id)` / `IdsWith*`; `MaterializeAtom`
// copies one out and is for cold paths only.
//
// Full-predicate sweeps additionally get a predicate-MAJOR mirror of the
// terms (DESIGN.md "Postings kernels"): each predicate's postings carry a
// packed copy of their atoms' arguments, appended at Add time, so a sweep
// over one predicate is a single linear read instead of a stride through
// the interleaved shared pool. `Postings(p)` exposes that layout as a
// PostingsSpan; it is what the homomorphism engine's unindexed fallback
// and the scan benches iterate.

#ifndef OMQC_LOGIC_INSTANCE_H_
#define OMQC_LOGIC_INSTANCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/status.h"
#include "logic/atom.h"

namespace omqc {

class ByteWriter;
class ByteReader;

/// Index of an atom within one Instance's arena: dense, assigned in
/// insertion order, stable for the lifetime of the instance.
using AtomId = uint32_t;

/// One predicate's postings: the atom ids (ascending — ids are assigned in
/// insertion order) plus a predicate-major packed mirror of the atoms'
/// argument terms. `terms` holds entry j's arguments contiguously starting
/// at `begins[j]`; a full sweep over the predicate therefore reads one
/// flat array front to back, never striding the shared arena.
struct PredicatePostings {
  /// Sentinel for `uniform_arity`: entries have differing arities (only
  /// possible for hand-built atoms whose argument count disagrees across
  /// inserts) and views must go through `begins`.
  static constexpr uint32_t kMixedArity = 0xFFFFFFFFu;

  std::vector<AtomId> ids;
  std::vector<uint32_t> begins;  ///< parallel to ids; start offset in terms
  std::vector<Term> terms;       ///< packed predicate-major term mirror
  /// Common arity of every entry, or kMixedArity. In the (ubiquitous)
  /// uniform case entry j's terms sit at j * uniform_arity, so a sweep is
  /// pure pointer arithmetic over `terms` with no index loads.
  uint32_t uniform_arity = kMixedArity;
};

/// Zero-copy view over one predicate's postings in insertion order.
/// Views returned by `view(j)` point into the packed mirror and are
/// invalidated by the next Add, exactly like Instance::view spans.
class PostingsSpan {
 public:
  PostingsSpan(Predicate p, const PredicatePostings* postings)
      : predicate_(p), postings_(postings),
        stride_(postings->uniform_arity) {}

  Predicate predicate() const { return predicate_; }
  size_t size() const { return postings_->ids.size(); }
  bool empty() const { return postings_->ids.empty(); }
  AtomId id(size_t j) const { return postings_->ids[j]; }
  const std::vector<AtomId>& ids() const { return postings_->ids; }

  /// Entry j as a span into the packed predicate-major mirror.
  AtomView view(size_t j) const {
    if (stride_ != PredicatePostings::kMixedArity) {
      return AtomView(predicate_, postings_->terms.data() + j * stride_,
                      stride_);
    }
    const uint32_t b = postings_->begins[j];
    const uint32_t e = j + 1 < postings_->begins.size()
                           ? postings_->begins[j + 1]
                           : static_cast<uint32_t>(postings_->terms.size());
    return AtomView(predicate_, postings_->terms.data() + b, e - b);
  }

 private:
  Predicate predicate_;
  const PredicatePostings* postings_;
  size_t stride_;  ///< uniform arity snapshot, or kMixedArity
};

/// A finite set of atoms with lookup indexes. Append-only plus bulk ops;
/// atom identity is set semantics (duplicates are ignored).
class Instance {
 public:
  Instance() = default;
  explicit Instance(const std::vector<Atom>& atoms) { AddBatch(atoms); }

  /// Outcome of an insert: the atom's id (fresh or pre-existing) and
  /// whether the insert actually extended the instance.
  struct AddOutcome {
    AtomId id;
    bool inserted;
  };

  /// Inserts the atom `view` refers to (copying its terms into the arena);
  /// no-op if an equal atom is already present. `view` must not point into
  /// this instance's own arena unless the atom is already present.
  AddOutcome AddView(AtomView view);

  /// Inserts `atom`; returns true iff it was not already present.
  bool Add(const Atom& atom) { return AddView(ViewOf(atom)).inserted; }

  /// Bulk insert with batched dedup probes: hashes are computed a few
  /// atoms ahead and the dedup slots prefetched before they are probed, so
  /// the table's cache misses overlap instead of serializing. Returns the
  /// number of atoms actually inserted (duplicates are skipped as in Add).
  size_t AddBatch(const std::vector<Atom>& atoms);

  bool Contains(AtomView view) const { return FindId(view).has_value(); }
  bool Contains(const Atom& atom) const { return Contains(ViewOf(atom)); }

  /// The id of the equal atom, if present. O(1); never materializes.
  std::optional<AtomId> FindId(AtomView view) const;
  std::optional<AtomId> FindId(const Atom& atom) const {
    return FindId(ViewOf(atom));
  }

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// The atom with the given id as a zero-copy span into the arena.
  /// Invalidated by the next Add (the term pool may reallocate); the id
  /// itself stays valid forever.
  AtomView view(AtomId id) const {
    const AtomRecord& r = records_[id];
    return AtomView(r.predicate, term_pool_.data() + r.offset, r.arity);
  }

  /// A materialized (owning) copy of the atom with the given id.
  Atom MaterializeAtom(AtomId id) const { return view(id).Materialize(); }

  /// Ids of atoms with the given predicate, in insertion order (empty if
  /// none). The homomorphism engine's fallback candidate list.
  const std::vector<AtomId>& IdsWith(Predicate p) const;

  /// The predicate's postings as a packed predicate-major span: the
  /// layout-aware way to sweep every atom of one predicate (the id loop
  /// over IdsWith + view(id) strides the shared arena; this reads one
  /// contiguous terms array). Empty span if the predicate is absent.
  PostingsSpan Postings(Predicate p) const;

  /// Prefetch hint: pulls the argument terms of atom `id` toward the
  /// cache. Used by candidate scans that know their next few ids.
  void PrefetchTerms(AtomId id) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(term_pool_.data() + records_[id].offset);
#else
    (void)id;
#endif
  }

  /// Ids of atoms with predicate `p` whose argument at `position` equals
  /// `t`. Backed by an index; O(result size). The list is sorted: ids are
  /// appended in insertion order, so it supports the same binary-searched
  /// windows as the per-predicate postings (see ArgIdRange).
  const std::vector<AtomId>& IdsWithArg(Predicate p, int position,
                                        const Term& t) const;

  /// The by-arg postings of (p, position, t) windowed to the arena-id
  /// range [lo, hi), as a sorted [first, last) span (two binary searches;
  /// no copy). The semi-naive chase's delta scan for a body atom with a
  /// constant argument is exactly this window: it visits only delta atoms
  /// that already carry the constant, where the per-predicate postings
  /// window would scan the predicate's whole delta.
  std::pair<const AtomId*, const AtomId*> ArgIdRange(Predicate p,
                                                     int position,
                                                     const Term& t, AtomId lo,
                                                     AtomId hi) const;

  /// The active domain dom(I): all terms occurring in the instance.
  std::vector<Term> ActiveDomain() const;
  /// The constants of the active domain.
  std::vector<Term> ActiveDomainConstants() const;

  /// The set of predicates occurring in the instance.
  Schema InducedSchema() const;

  /// True iff every atom is a fact (no nulls, no variables).
  bool IsDatabase() const;

  /// Maximal connected components w.r.t. shared terms (Sec. 7.1).
  /// 0-ary atoms are excluded, matching the paper's footnote 5.
  std::vector<Instance> ConnectedComponents() const;

  /// Bytes held by the arena and the id-based indexes: term pool, atom
  /// records, dedup slots (+ hash tags), posting entries and the
  /// predicate-major term mirror. O(1), exact for the data proper
  /// (container bookkeeping overhead excluded); this is what the chase
  /// charges against the governor's memory budget.
  size_t MemoryBytes() const {
    // Per term occurrence: the pool entry, its mirror copy in the
    // predicate-major postings, and one by_arg_ posting entry. Per atom:
    // the record, one predicate posting id and one mirror begin offset.
    return term_pool_.size() * (2 * sizeof(Term) + sizeof(AtomId)) +
           records_.size() *
               (sizeof(AtomRecord) + sizeof(AtomId) + sizeof(uint32_t)) +
           slots_.size() * (sizeof(AtomId) + sizeof(uint16_t));
  }

  /// Serializes the arena into `out` (logic/serialize.cc): a predicate
  /// dictionary, a term dictionary (constants and variables by *name*,
  /// nulls by id) and the atom records in insertion order. The dedup
  /// table and the postings indexes are NOT stored — Restore rebuilds
  /// them by re-inserting the atoms in order, which reproduces the exact
  /// AtomId assignment and index contents of the original.
  void Snapshot(ByteWriter& out) const;

  /// Inverse of Snapshot. Terms are re-interned by name (so the snapshot
  /// is stable across processes and interning orders); nulls keep their
  /// ids. Fails (without crashing) on truncated or malformed input.
  static Result<Instance> Restore(ByteReader& in);

  /// Multi-line listing "R(a,b). S(b).", its lines sorted as text so the
  /// order never depends on what the process interned earlier.
  std::string ToString() const;

  bool operator==(const Instance& other) const {
    if (size() != other.size()) return false;
    for (AtomId id = 0; id < records_.size(); ++id) {
      if (!other.Contains(view(id))) return false;
    }
    return true;
  }

 private:
  /// Per-atom arena record: which predicate, where its terms live in the
  /// pool, how many. 12 bytes; the terms themselves are contiguous in
  /// term_pool_ so a scan over one atom's arguments never pointer-chases.
  struct AtomRecord {
    Predicate predicate;
    uint32_t offset;
    uint8_t arity;
  };

  struct ArgKey {
    int32_t pred_id;
    int position;
    Term term;
    bool operator==(const ArgKey& o) const {
      return pred_id == o.pred_id && position == o.position && term == o.term;
    }
  };
  struct ArgKeyHash {
    size_t operator()(const ArgKey& k) const {
      size_t seed = std::hash<int32_t>{}(k.pred_id);
      HashCombine(seed, static_cast<size_t>(k.position));
      HashCombine(seed, TermHash{}(k.term));
      return seed;
    }
  };

  static constexpr AtomId kEmptySlot = 0xFFFFFFFFu;

  /// Rebuilds the open-addressing dedup table with `new_size` slots
  /// (power of two).
  void Rehash(size_t new_size);

  /// AddView with the atom's hash already computed (the batched paths
  /// hash ahead of the probe to overlap the table's cache misses).
  AddOutcome AddViewHashed(AtomView view, size_t hash);

  /// The dedup slot holding an atom equal to `v` (hash precomputed), or
  /// nullopt. Tags filter arena comparisons: a slot's terms are only
  /// touched when its 16-bit hash fragment matches.
  std::optional<AtomId> ProbeHashed(AtomView v, size_t hash) const;

  /// Prefetches the dedup slot cache lines `hash` lands on.
  void PrefetchSlot(size_t hash) const {
#if defined(__GNUC__) || defined(__clang__)
    if (!slots_.empty()) {
      const size_t idx = hash & (slots_.size() - 1);
      __builtin_prefetch(slots_.data() + idx);
      __builtin_prefetch(slot_tags_.data() + idx);
    }
#else
    (void)hash;
#endif
  }

  /// The 16-bit tag stored next to a slot: high hash bits (the table index
  /// uses the low bits, so the tag adds independent discrimination).
  static uint16_t TagOf(size_t hash) {
    return static_cast<uint16_t>(hash >> 48);
  }

  /// Arena: one flat term pool + one record per atom, in insertion order.
  std::vector<Term> term_pool_;
  std::vector<AtomRecord> records_;
  /// Dedup table: open addressing (linear probing, load factor <= 1/2)
  /// over atom ids, hashed/compared against the arena in place — Add and
  /// Contains never materialize a temporary Atom. slot_tags_ carries a
  /// 16-bit hash fragment per slot so probe chains reject mismatches
  /// without the dependent load into records_/term_pool_.
  std::vector<AtomId> slots_;
  std::vector<uint16_t> slot_tags_;
  /// Id postings plus the predicate-major term mirror, in insertion order.
  std::unordered_map<int32_t, PredicatePostings> by_predicate_;
  std::unordered_map<ArgKey, std::vector<AtomId>, ArgKeyHash> by_arg_;
};

/// Alias emphasizing intent at call sites that require null-free instances.
using Database = Instance;

/// Returns a copy of `db` with every machine-generated constant (names
/// starting with '@') renamed to `prefix`0, `prefix`1, ... in first-
/// occurrence order, skipping any name a constant of `db` already has.
/// Used to display frozen witness databases.
Database PrettifiedCopy(const Database& db, const std::string& prefix = "c");

}  // namespace omqc

#endif  // OMQC_LOGIC_INSTANCE_H_
