#include "rewrite/xrewrite.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "base/governor.h"
#include "base/hash_util.h"
#include "base/string_util.h"
#include "logic/homomorphism.h"
#include "rewrite/unify.h"

namespace omqc {
namespace {

/// A normalized tgd with its head existential position precomputed.
struct NormalRule {
  Tgd tgd;
  /// Position of the (unique) existential variable in the single head
  /// atom, or -1 when the tgd has no existential variable (π∃(σ) = ε).
  int existential_position = -1;
};

std::vector<NormalRule> PrepareRules(const TgdSet& tgds) {
  TgdSet normalized = NormalizeHeads(tgds, "@xr");
  std::vector<NormalRule> rules;
  rules.reserve(normalized.size());
  for (Tgd& tgd : normalized.tgds) {
    NormalRule rule;
    std::vector<Term> ex = tgd.ExistentialVariables();
    if (!ex.empty()) {
      const Atom& head = tgd.head.front();
      for (size_t i = 0; i < head.args.size(); ++i) {
        if (head.args[i] == ex.front()) {
          rule.existential_position = static_cast<int>(i);
          break;
        }
      }
    }
    rule.tgd = std::move(tgd);
    rules.push_back(std::move(rule));
  }
  return rules;
}

/// Deduplicates body atoms (set semantics).
std::vector<Atom> DedupAtoms(const std::vector<Atom>& atoms) {
  std::vector<Atom> out;
  std::unordered_set<Atom, AtomHash> seen;
  for (const Atom& a : atoms) {
    if (seen.insert(a).second) out.push_back(a);
  }
  return out;
}

/// Freeze(q) of the query one admission works on, made on first use and
/// shared by minimization and the subsumption scan. Freeze names each
/// variable after itself, so when q loses atom i its frozen atom i is
/// dropped and the rest stays valid; only the database is rebuilt, on the
/// next search that needs it.
class FrozenNewcomer {
 public:
  /// Freeze(q).database, freezing q if no earlier call did.
  const Database& DatabaseOf(const ConjunctiveQuery& q) {
    if (!frozen_) {
      Substitution freezing = FreezingOf(q);
      atoms_ = freezing.Apply(q.body);
      answer_tuple_ = freezing.Apply(q.answer_vars);
      frozen_ = true;
    }
    if (!database_.has_value()) {
      database_.emplace();
      ids_.clear();
      for (const Atom& a : atoms_) {
        ids_.push_back(database_->AddView(ViewOf(a)).id);
      }
    }
    return *database_;
  }

  /// Freeze(q)'s answer tuple (after DatabaseOf(q)).
  const std::vector<Term>& answer_tuple() const { return answer_tuple_; }

  /// The database atom to leave out when searching Freeze(q minus atom
  /// i) in DatabaseOf(q), or none when another body atom of q freezes to
  /// the same atom (q minus a duplicate freezes to the same set).
  std::optional<AtomId> Without(size_t i) const {
    if (std::count(ids_.begin(), ids_.end(), ids_[i]) > 1) {
      return std::nullopt;
    }
    return ids_[i];
  }

  /// q is about to lose body atom i.
  void DropAtom(size_t i) {
    if (frozen_) atoms_.erase(atoms_.begin() + static_cast<std::ptrdiff_t>(i));
    database_.reset();
  }

 private:
  bool frozen_ = false;
  std::vector<Atom> atoms_;  // atoms_[i] = the frozen image of q.body[i]
  std::vector<Term> answer_tuple_;
  std::optional<Database> database_;  // of atoms_, built on demand
  std::vector<AtomId> ids_;           // ids_[i] = database id of atoms_[i]
};

/// A necessary condition for a homomorphism h, the identity on constants
/// and with h(from_answers[k]) = Freeze(to_answers[k]), to map atom `from`
/// onto Freeze(to): the predicates agree, and
///   * `to` holds t wherever `from` holds a non-variable term t,
///   * `to` holds to_answers[k] wherever `from` holds from_answers[k],
///   * `to` holds equal terms wherever `from` repeats a variable.
/// Each check reads `to` unfrozen, which is exact because Freeze is
/// injective on query terms (a variable X becomes "@f_X", and no query
/// constant starts with '@').
bool CouldMapOnto(const Atom& from, const Atom& to,
                  const std::vector<Term>& from_answers,
                  const std::vector<Term>& to_answers) {
  if (from.predicate != to.predicate) return false;
  for (size_t p = 0; p < from.args.size(); ++p) {
    const Term& t = from.args[p];
    if (!t.IsVariable()) {
      if (to.args[p] != t) return false;
      continue;
    }
    auto answer = std::find(from_answers.begin(), from_answers.end(), t);
    if (answer != from_answers.end()) {
      if (to.args[p] != to_answers[static_cast<size_t>(
                            answer - from_answers.begin())]) {
        return false;
      }
      continue;
    }
    for (size_t r = 0; r < p; ++r) {
      if (from.args[r] == t) {
        if (to.args[r] != to.args[p]) return false;
        break;
      }
    }
  }
  return true;
}

/// Fold filter: atom i of q is redundant only if a retraction of q fixes
/// the answer variables and maps atom i onto another atom of q.
bool MayFold(const ConjunctiveQuery& q, size_t i) {
  for (size_t j = 0; j < q.body.size(); ++j) {
    if (j != i &&
        CouldMapOnto(q.body[i], q.body[j], q.answer_vars, q.answer_vars)) {
      return true;
    }
  }
  return false;
}

/// Shape filter: entry e can subsume q only if each atom of e has an atom
/// of q it could map onto with e's answer tuple sent to q's.
bool ShapesAllow(const ConjunctiveQuery& e, const ConjunctiveQuery& q) {
  for (const Atom& a : e.body) {
    bool target = false;
    for (const Atom& b : q.body) {
      if (CouldMapOnto(a, b, e.answer_vars, q.answer_vars)) {
        target = true;
        break;
      }
    }
    if (!target) return false;
  }
  return true;
}

/// The predicate signature of a CQ: bit (id mod 64) set for every body
/// predicate. A homomorphism p → Freeze(q) maps each atom to an atom with
/// the same predicate, so p can subsume q only if
/// (PredicateMask(p) & ~PredicateMask(q)) == 0.
uint64_t PredicateMask(const ConjunctiveQuery& q) {
  uint64_t mask = 0;
  for (const Atom& a : q.body) {
    mask |= uint64_t{1} << (static_cast<uint32_t>(a.predicate.id()) % 64);
  }
  return mask;
}

/// MinimizeCQ, searching only where the fold filter allows a fold. Every
/// search runs over `frozen`'s one database for the round, with the
/// candidate atom excluded. An atom found irredundant is never tested
/// again: if a retraction r drops atom b and g folds atom a of the
/// smaller query, g∘r folds a in the larger one. So the first redundant
/// atom of each round is the one the loop that tested every atom found.
/// `checks`, when non-null, counts the searches.
ConjunctiveQuery MinimizeAndFreeze(const ConjunctiveQuery& q,
                                   FrozenNewcomer& frozen, size_t* checks) {
  ConjunctiveQuery current = q;
  std::vector<bool> irredundant(current.body.size(), false);
  bool changed = true;
  while (changed && current.body.size() > 1) {
    changed = false;
    for (size_t i = 0; i < current.body.size(); ++i) {
      if (irredundant[i]) continue;
      irredundant[i] = true;
      if (!MayFold(current, i)) continue;
      ConjunctiveQuery candidate = current;
      candidate.body.erase(candidate.body.begin() +
                           static_cast<std::ptrdiff_t>(i));
      // Answer variables must stay bound in the body.
      if (!ValidateCQ(candidate).ok()) continue;
      // candidate has fewer constraints, so current ⊆ candidate always;
      // the atom is redundant iff also candidate ⊆ current.
      const Database& database = frozen.DatabaseOf(current);
      HomomorphismOptions options;
      options.excluded_atom = frozen.Without(i);
      if (checks != nullptr) ++*checks;
      if (TupleInAnswerBudgeted(current, database, frozen.answer_tuple(),
                                options) == HomSearchOutcome::kFound) {
        current = std::move(candidate);
        frozen.DropAtom(i);
        irredundant.erase(irredundant.begin() +
                          static_cast<std::ptrdiff_t>(i));
        changed = true;
        break;
      }
    }
  }
  return current;
}

struct Entry {
  ConjunctiveQuery query;
  /// PredicateMask(query), the subsumption scan's prefilter.
  uint64_t predicates;
  bool from_rewriting;
  bool reported = false;
};

/// Rough footprint of an admitted query, charged against the governor's
/// byte budget (an estimate bounding blowup, not allocator-exact bytes).
size_t ApproxQueryBytes(const ConjunctiveQuery& q) {
  size_t bytes = sizeof(Entry) + q.answer_vars.size() * sizeof(Term);
  for (const Atom& a : q.body) {
    bytes += sizeof(Atom) + a.args.size() * sizeof(Term);
  }
  return bytes;
}

class XRewriteRun {
 public:
  XRewriteRun(const Schema& data_schema, const TgdSet& tgds,
              const ConjunctiveQuery& q, const XRewriteOptions& options,
              XRewriteStats* stats,
              const std::function<bool(const ConjunctiveQuery&)>* callback)
      : data_schema_(data_schema),
        rules_(PrepareRules(tgds)),
        initial_(q),
        options_(options),
        stats_(stats),
        callback_(callback) {}

  Result<RewriteEnumeration> Run() {
    ConjunctiveQuery start = initial_;
    start.body = DedupAtoms(start.body);
    AddQuery(std::move(start), /*from_rewriting=*/true);
    RewriteEnumeration outcome = RewriteEnumeration::kSaturated;
    // Entries are append-only and explored strictly in admission order, so
    // a monotone frontier cursor suffices (the previous per-iteration
    // rescan made exploration O(n²) in the number of generated queries).
    while (!stopped_ && !budget_exhausted_ &&
           next_unexplored_ < entries_.size()) {
      // Copy: AddQuery may reallocate entries_.
      ConjunctiveQuery q = entries_[next_unexplored_].query;
      ++next_unexplored_;
      OMQC_RETURN_IF_ERROR(Explore(q));
    }
    if (budget_exhausted_) outcome = RewriteEnumeration::kBudgetExhausted;
    if (stopped_) outcome = RewriteEnumeration::kStopped;
    if (stats_ != nullptr) stats_->queries_generated = entries_.size();
    return outcome;
  }

  /// OK unless the run was cut short by the request governor (in which
  /// case Run() reported kBudgetExhausted and this holds the trip).
  const Status& trip() const { return trip_; }

  /// The final rewriting Qfin: rewriting-labeled queries over the data
  /// schema.
  UnionOfCQs FinalRewriting() const {
    UnionOfCQs out;
    for (const Entry& e : entries_) {
      if (e.from_rewriting && OverDataSchema(e.query)) {
        out.disjuncts.push_back(e.query);
      }
    }
    return out;
  }

 private:
  bool OverDataSchema(const ConjunctiveQuery& q) const {
    for (const Atom& a : q.body) {
      if (!data_schema_.Contains(a.predicate)) return false;
    }
    return true;
  }

  void MaybeReport(size_t index) {
    Entry& e = entries_[index];
    if (callback_ == nullptr || e.reported || !e.from_rewriting ||
        !OverDataSchema(e.query)) {
      return;
    }
    e.reported = true;
    if (!(*callback_)(e.query)) stopped_ = true;
  }

  /// Adds `q` unless an ≃-equivalent query blocks it (per Algorithm 1:
  /// rewriting-produced queries are blocked only by rewriting-labeled
  /// queries; factorization-produced queries by any query), or — with
  /// prune_subsumed — unless an existing rewriting query subsumes it.
  /// The max_queries budget is enforced HERE, at admission time: deduped
  /// or pruned candidates never count, and once the cap is reached the
  /// run is marked budget-exhausted instead of storing the query, so
  /// `entries_` can never grow past the cap within an exploration burst.
  void AddQuery(ConjunctiveQuery q, bool from_rewriting) {
    if (budget_exhausted_) return;
    // Freeze(q), made at most once per admission: by minimization's first
    // search, or by the subsumption scan's.
    FrozenNewcomer frozen;
    if (options_.minimize_disjuncts) {
      q = MinimizeAndFreeze(
          q, frozen, stats_ != nullptr ? &stats_->minimize_checks : nullptr);
    }
    // The key is ≃-invariant, so every ≃-duplicate of q lands in its
    // bucket, and IsomorphicCQs decides. Entries are pairwise
    // non-isomorphic (a match returns below), so at most one entry of
    // the bucket matches whatever else shares its key.
    const uint64_t key = DedupBucketKey(q);
    auto it = buckets_.find(key);
    if (it != buckets_.end()) {
      for (size_t idx : it->second) {
        Entry& e = entries_[idx];
        if (IsomorphicCQs(q, e.query)) {
          if (stats_ != nullptr) ++stats_->dedup_hits;
          // A rewriting duplicate of a factorization query upgrades the
          // label so it reaches the final rewriting, instead of being
          // admitted as a renamed copy that would be explored twice.
          if (from_rewriting && !e.from_rewriting) {
            e.from_rewriting = true;
            MaybeReport(idx);
          }
          return;
        }
      }
    }
    const uint64_t predicates = PredicateMask(q);
    if (options_.prune_subsumed && from_rewriting) {
      // e subsumes q iff q's frozen answer tuple is an answer of e over
      // q's frozen database (Chandra–Merlin), so q is frozen once for the
      // whole scan.
      for (const Entry& e : entries_) {
        if (!e.from_rewriting ||
            e.query.answer_vars.size() != q.answer_vars.size() ||
            (e.predicates & ~predicates) != 0 ||
            !ShapesAllow(e.query, q)) {
          continue;
        }
        // One probe per subsumption search that runs: the scan may run up
        // to max_queries of them, so waiting for the next step would let
        // a trip go unseen for just as long.
        if (!GovernorAllows()) return;
        const Database& database = frozen.DatabaseOf(q);
        if (stats_ != nullptr) ++stats_->subsumption_checks;
        if (TupleInAnswer(e.query, database, frozen.answer_tuple())) {
          if (stats_ != nullptr) ++stats_->subsumption_prunes;
          return;  // subsumed: contributes nothing to the UCQ
        }
      }
    }
    if (entries_.size() >= options_.max_queries) {
      budget_exhausted_ = true;
      return;
    }
    if (options_.governor != nullptr &&
        !Latch(options_.governor->ChargeBytes(ApproxQueryBytes(q)))) {
      return;
    }
    buckets_[key].push_back(entries_.size());
    entries_.push_back(Entry{std::move(q), predicates, from_rewriting, false});
    MaybeReport(entries_.size() - 1);
  }

  /// Burns one rewriting/factorization step; returns false (and marks the
  /// run budget-exhausted) when the step budget is spent or the request
  /// governor trips.
  bool TakeStep() {
    ++steps_;
    if (options_.max_steps != 0 && steps_ > options_.max_steps) {
      budget_exhausted_ = true;
      return false;
    }
    return GovernorAllows();
  }

  /// Probes the request governor (if any); false on a trip.
  bool GovernorAllows() {
    return options_.governor == nullptr || Latch(options_.governor->Check());
  }

  /// True iff `st` is OK; otherwise marks the run budget-exhausted and
  /// keeps the first governor trip for trip().
  bool Latch(Status st) {
    if (st.ok()) return true;
    budget_exhausted_ = true;
    if (trip_.ok()) trip_ = std::move(st);
    return false;
  }

  Status Explore(const ConjunctiveQuery& q) {
    std::set<Term> shared = q.SharedVariables();
    for (const NormalRule& rule : rules_) {
      if (stopped_ || budget_exhausted_) return Status::OK();
      OMQC_RETURN_IF_ERROR(RewritingSteps(q, shared, rule));
      OMQC_RETURN_IF_ERROR(FactorizationSteps(q, rule));
    }
    return Status::OK();
  }

  /// All rewriting steps of `q` with `rule` (Def. 6 applicability).
  Status RewritingSteps(const ConjunctiveQuery& q,
                        const std::set<Term>& shared,
                        const NormalRule& rule) {
    const Predicate head_pred = rule.tgd.head.front().predicate;
    std::vector<size_t> group;
    for (size_t i = 0; i < q.body.size(); ++i) {
      if (q.body[i].predicate == head_pred) group.push_back(i);
    }
    if (group.empty()) return Status::OK();
    if (group.size() > options_.max_group_size) {
      return Status::ResourceExhausted(
          StrCat("XRewrite: ", group.size(), " candidate atoms for ",
                 head_pred.ToString(), " exceed max_group_size"));
    }
    const size_t subsets = (size_t{1} << group.size());
    for (size_t mask = 1;
         mask < subsets && !stopped_ && !budget_exhausted_; ++mask) {
      std::vector<size_t> s_indices;
      for (size_t b = 0; b < group.size(); ++b) {
        if (mask & (size_t{1} << b)) s_indices.push_back(group[b]);
      }
      // Applicability condition 2: no constant or shared variable at the
      // existential position of any atom of S.
      if (rule.existential_position >= 0) {
        bool blocked = false;
        for (size_t idx : s_indices) {
          const Term& t =
              q.body[idx].args[static_cast<size_t>(rule.existential_position)];
          if (t.IsConstant() || shared.count(t) > 0) {
            blocked = true;
            break;
          }
        }
        if (blocked) continue;
      }
      // Applicability condition 1: S ∪ {head(σ^i)} unifies.
      if (!TakeStep()) return Status::OK();
      Tgd renamed = rule.tgd.RenamedApart(static_cast<int>(steps_));
      std::vector<Atom> to_unify;
      for (size_t idx : s_indices) to_unify.push_back(q.body[idx]);
      to_unify.push_back(renamed.head.front());
      std::optional<Substitution> mgu = MostGeneralUnifier(to_unify);
      if (!mgu.has_value()) continue;
      // q' = γ(q[S / body(σ^i)]).
      std::vector<Atom> new_body;
      std::set<size_t> replaced(s_indices.begin(), s_indices.end());
      for (size_t i = 0; i < q.body.size(); ++i) {
        if (replaced.count(i) == 0) new_body.push_back(q.body[i]);
      }
      for (const Atom& b : renamed.body) new_body.push_back(b);
      ConjunctiveQuery result(mgu->Apply(q.answer_vars),
                              DedupAtoms(mgu->Apply(new_body)));
      if (stats_ != nullptr) ++stats_->rewriting_steps;
      AddQuery(std::move(result), /*from_rewriting=*/true);
    }
    return Status::OK();
  }

  /// All factorization steps of `q` with `rule` (Def. 7 factorizability).
  Status FactorizationSteps(const ConjunctiveQuery& q,
                            const NormalRule& rule) {
    if (rule.existential_position < 0) return Status::OK();
    const Predicate head_pred = rule.tgd.head.front().predicate;
    const size_t pos = static_cast<size_t>(rule.existential_position);
    std::vector<size_t> group;
    for (size_t i = 0; i < q.body.size(); ++i) {
      if (q.body[i].predicate == head_pred) group.push_back(i);
    }
    if (group.size() < 2) return Status::OK();
    if (group.size() > options_.max_group_size) {
      return Status::ResourceExhausted(
          StrCat("XRewrite: ", group.size(), " candidate atoms for ",
                 head_pred.ToString(), " exceed max_group_size"));
    }
    std::set<Term> answer_vars(q.answer_vars.begin(), q.answer_vars.end());
    const size_t subsets = (size_t{1} << group.size());
    for (size_t mask = 1;
         mask < subsets && !stopped_ && !budget_exhausted_; ++mask) {
      if (__builtin_popcountll(mask) < 2) continue;
      std::vector<size_t> s_indices;
      for (size_t b = 0; b < group.size(); ++b) {
        if (mask & (size_t{1} << b)) s_indices.push_back(group[b]);
      }
      // Condition 3: some non-answer variable x, absent from body \ S,
      // occurring in every atom of S exactly at position π∃ and nowhere
      // else within S.
      std::set<size_t> in_s(s_indices.begin(), s_indices.end());
      std::set<Term> outside_vars;
      for (size_t i = 0; i < q.body.size(); ++i) {
        if (in_s.count(i) > 0) continue;
        for (const Term& t : q.body[i].args) {
          if (t.IsVariable()) outside_vars.insert(t);
        }
      }
      const Term& candidate = q.body[s_indices.front()].args[pos];
      if (!candidate.IsVariable() || outside_vars.count(candidate) > 0 ||
          answer_vars.count(candidate) > 0) {
        continue;
      }
      bool witness = true;
      for (size_t idx : s_indices) {
        const Atom& a = q.body[idx];
        for (size_t j = 0; j < a.args.size(); ++j) {
          bool is_candidate = a.args[j] == candidate;
          if (j == pos ? !is_candidate : is_candidate) {
            witness = false;
            break;
          }
        }
        if (!witness) break;
      }
      if (!witness) continue;
      // Condition 1: S unifies.
      std::vector<Atom> to_unify;
      for (size_t idx : s_indices) to_unify.push_back(q.body[idx]);
      std::optional<Substitution> mgu = MostGeneralUnifier(to_unify);
      if (!mgu.has_value()) continue;
      if (!TakeStep()) return Status::OK();
      ConjunctiveQuery result(mgu->Apply(q.answer_vars),
                              DedupAtoms(mgu->Apply(q.body)));
      if (stats_ != nullptr) ++stats_->factorization_steps;
      AddQuery(std::move(result), /*from_rewriting=*/false);
    }
    return Status::OK();
  }

  const Schema& data_schema_;
  std::vector<NormalRule> rules_;
  const ConjunctiveQuery& initial_;
  const XRewriteOptions& options_;
  XRewriteStats* stats_;
  const std::function<bool(const ConjunctiveQuery&)>* callback_;
  std::vector<Entry> entries_;
  std::unordered_map<uint64_t, std::vector<size_t>> buckets_;
  /// Frontier cursor: entries_[0, next_unexplored_) have been explored.
  size_t next_unexplored_ = 0;
  size_t steps_ = 0;
  bool stopped_ = false;
  bool budget_exhausted_ = false;
  Status trip_;  // first governor trip observed, if any
};

/// base^exp with saturation.
size_t SaturatingPow(size_t base, size_t exp) {
  size_t result = 1;
  const size_t limit = std::numeric_limits<size_t>::max() / 2;
  for (size_t i = 0; i < exp; ++i) {
    if (base != 0 && result > limit / std::max<size_t>(base, 1)) {
      return limit;
    }
    result *= base;
  }
  return result;
}

}  // namespace

Result<UnionOfCQs> XRewrite(const Schema& data_schema, const TgdSet& tgds,
                            const ConjunctiveQuery& q,
                            const XRewriteOptions& options,
                            XRewriteStats* stats) {
  OMQC_RETURN_IF_ERROR(ValidateTgdSet(tgds));
  OMQC_RETURN_IF_ERROR(ValidateCQ(q));
  XRewriteRun run(data_schema, tgds, q, options, stats, nullptr);
  OMQC_ASSIGN_OR_RETURN(RewriteEnumeration outcome, run.Run());
  if (outcome == RewriteEnumeration::kBudgetExhausted) {
    if (!run.trip().ok()) return run.trip();  // governor cut the run short
    return Status::ResourceExhausted(
        "XRewrite exceeded its budget; the rewriting may be infinite "
        "(is the ontology linear, non-recursive or sticky?)");
  }
  UnionOfCQs result = run.FinalRewriting();
  if (stats != nullptr) stats->max_disjunct_atoms = result.MaxDisjunctSize();
  return result;
}

Result<RewriteEnumeration> EnumerateRewritings(
    const Schema& data_schema, const TgdSet& tgds, const ConjunctiveQuery& q,
    const XRewriteOptions& options,
    const std::function<bool(const ConjunctiveQuery&)>& on_disjunct,
    XRewriteStats* stats) {
  OMQC_RETURN_IF_ERROR(ValidateTgdSet(tgds));
  OMQC_RETURN_IF_ERROR(ValidateCQ(q));
  XRewriteRun run(data_schema, tgds, q, options, stats, &on_disjunct);
  return run.Run();
}

uint64_t DedupBucketKey(const ConjunctiveQuery& q) {
  // Variables are numbered by first occurrence; slot[o] is the variable
  // number at the o-th argument of the body (in atom order), or -1 for a
  // non-variable term.
  std::vector<Term> vars;
  std::vector<int> slot;
  for (const Atom& a : q.body) {
    for (const Term& t : a.args) {
      if (!t.IsVariable()) {
        slot.push_back(-1);
        continue;
      }
      auto it = std::find(vars.begin(), vars.end(), t);
      slot.push_back(static_cast<int>(it - vars.begin()));
      if (it == vars.end()) vars.push_back(t);
    }
  }
  // Initial colour: the answer positions a variable holds (positional, as
  // IsomorphicCQs pins the answer tuples position by position).
  std::vector<uint64_t> colour(vars.size(), 0);
  uint64_t key = Mix64(q.answer_vars.size() + (q.body.size() << 8));
  for (size_t k = 0; k < q.answer_vars.size(); ++k) {
    const Term& t = q.answer_vars[k];
    if (t.IsVariable()) {
      const size_t v = static_cast<size_t>(
          std::find(vars.begin(), vars.end(), t) - vars.begin());
      if (v < vars.size()) colour[v] = Mix64(colour[v] ^ Mix64(k + 1));
    } else {
      key = Mix64(key ^ Mix64((k + 1) * 0x100000000ULL +
                              static_cast<uint32_t>(t.id())));
    }
  }
  // Each round hashes every atom under the current colours, then adds to
  // each variable's colour a commutative sum over its occurrences of
  // (atom hash, position): independent of atom order and variable names.
  std::vector<uint64_t> atom_hash(q.body.size());
  auto hash_atoms = [&]() {
    size_t o = 0;
    for (size_t i = 0; i < q.body.size(); ++i) {
      const Atom& a = q.body[i];
      uint64_t h = Mix64(static_cast<uint32_t>(a.predicate.id()) + 1);
      for (const Term& t : a.args) {
        const int v = slot[o++];
        h = Mix64(h ^ (v < 0 ? Mix64(static_cast<uint64_t>(t.kind()) << 32 |
                                     static_cast<uint32_t>(t.id()))
                             : colour[static_cast<size_t>(v)]));
      }
      atom_hash[i] = h;
    }
  };
  for (int round = 0; round < 2; ++round) {
    hash_atoms();
    std::vector<uint64_t> next = colour;
    size_t o = 0;
    for (size_t i = 0; i < q.body.size(); ++i) {
      for (size_t p = 0; p < q.body[i].args.size(); ++p) {
        const int v = slot[o++];
        if (v >= 0) next[static_cast<size_t>(v)] += Mix64(atom_hash[i] + p);
      }
    }
    for (uint64_t& c : next) c = Mix64(c);
    colour = std::move(next);
  }
  hash_atoms();
  uint64_t body = 0;
  for (uint64_t h : atom_hash) body += h;
  return Mix64(key ^ body);
}

ConjunctiveQuery MinimizeCQ(const ConjunctiveQuery& q) {
  FrozenNewcomer frozen;
  return MinimizeAndFreeze(q, frozen, nullptr);
}

UnionOfCQs MinimizeUCQ(const UnionOfCQs& ucq) {
  // Every disjunct is frozen once, when it is first examined; a kept
  // disjunct keeps its frozen database for the later tests of whether the
  // newcomer subsumes it. p ⊆ k iff p's frozen answer tuple is an answer
  // of k over p's frozen database (an arity mismatch is never an answer).
  struct Kept {
    ConjunctiveQuery query;
    FrozenQuery frozen;
  };
  std::vector<Kept> kept;
  for (const ConjunctiveQuery& candidate : ucq.disjuncts) {
    FrozenQuery frozen = Freeze(candidate);
    bool subsumed = false;
    for (const Kept& k : kept) {
      if (TupleInAnswer(k.query, frozen.database, frozen.answer_tuple)) {
        subsumed = true;
        break;
      }
    }
    if (subsumed) continue;
    // Remove kept disjuncts subsumed by the new one.
    std::vector<Kept> next;
    for (Kept& k : kept) {
      if (!TupleInAnswer(candidate, k.frozen.database,
                         k.frozen.answer_tuple)) {
        next.push_back(std::move(k));
      }
    }
    next.push_back(Kept{candidate, std::move(frozen)});
    kept = std::move(next);
  }
  UnionOfCQs out;
  for (Kept& k : kept) out.disjuncts.push_back(std::move(k.query));
  return out;
}

size_t LinearRewriteBound(const ConjunctiveQuery& q) { return q.size(); }

size_t NonRecursiveRewriteBound(const TgdSet& tgds,
                                const ConjunctiveQuery& q) {
  size_t base = std::max<size_t>(tgds.MaxBodySize(), 1);
  return q.size() * SaturatingPow(base, tgds.SchemaOf().size());
}

size_t StickyRewriteBound(const Schema& data_schema, const TgdSet& tgds,
                          const ConjunctiveQuery& q) {
  size_t terms = q.AllTerms().size() + tgds.Constants().size() + 1;
  return data_schema.size() *
         SaturatingPow(terms, static_cast<size_t>(data_schema.MaxArity()));
}

}  // namespace omqc
