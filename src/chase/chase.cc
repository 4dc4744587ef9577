#include "chase/chase.h"

#include <algorithm>
#include <unordered_set>

#include "base/governor.h"
#include "base/hash_util.h"
#include "base/string_util.h"
#include "logic/postings_kernels.h"

namespace omqc {
namespace {

/// Identity of a trigger: which tgd fired with which binding of its body
/// variables (in BodyVariables() order).
struct TriggerKey {
  size_t tgd_index;
  std::vector<Term> binding;

  bool operator==(const TriggerKey& o) const {
    return tgd_index == o.tgd_index && binding == o.binding;
  }
};

struct TriggerKeyHash {
  size_t operator()(const TriggerKey& k) const {
    size_t seed = k.tgd_index;
    for (const Term& t : k.binding) HashCombine(seed, TermHash{}(t));
    return seed;
  }
};

/// Arena-byte growth is charged in batches of this size (plus a flush at
/// every tgd turn boundary), so the governor's atomics are not touched
/// once per atom. The budget may therefore be overshot by up to one batch
/// — irrelevant at the granularity the budget promises. The bytes charged
/// are Instance::MemoryBytes deltas, i.e. real arena + index bytes, not
/// the per-Atom estimate the pre-columnar engine used.
constexpr size_t kChargeBatchBytes = 4096;

/// Applies `sub` to the arguments of `pattern` into the reusable buffer
/// `out` and returns a view of the image atom. The view borrows `out`.
AtomView ApplyToScratch(const Substitution& sub, const Atom& pattern,
                        std::vector<Term>& out) {
  out.clear();
  for (const Term& t : pattern.args) {
    out.push_back(t.IsVariable() ? sub.Apply(t) : t);
  }
  return AtomView(pattern.predicate, out.data(), out.size());
}

/// Governor probe stride inside the trigger-application loop. Each turn
/// starts with an unconditional Check(), so a trip is observed within one
/// stride of cheap trigger applications (the hom searches nested in a
/// trigger carry their own stride).
constexpr size_t kTriggerCheckStride = 16;

}  // namespace

const ChaseResult::Provenance* ChaseResult::ProvenanceOf(
    const Atom& atom) const {
  std::optional<AtomId> id = instance.FindId(atom);
  if (!id.has_value()) return nullptr;
  auto it = provenance.find(*id);
  return it == provenance.end() ? nullptr : &it->second;
}

Result<ChaseResult> Chase(const Instance& database, const TgdSet& tgds,
                          const ChaseOptions& options) {
  OMQC_RETURN_IF_ERROR(ValidateTgdSet(tgds));

  ChaseResult result;
  result.instance = database;
  result.atoms_per_level.assign(1, database.size());
  // level_of is a column parallel to the arena: database atoms are ids
  // [0, |D|) at level 0; every derived atom appends its level below.
  result.level_of.assign(result.instance.size(), 0);

  const bool semi_naive = options.strategy == ChaseStrategy::kSemiNaive;
  std::unordered_set<TriggerKey, TriggerKeyHash> processed;
  // Body variable orders, precomputed per tgd.
  std::vector<std::vector<Term>> body_vars(tgds.size());
  for (size_t i = 0; i < tgds.size(); ++i) {
    body_vars[i] = tgds.tgds[i].BodyVariables();
  }
  // Semi-naive bookkeeping: per tgd, whether its first (full) enumeration
  // ran, the instance size snapshotted at its previous turn (its delta is
  // the atom range [seen_upto, turn start)), and the previous turn's
  // trigger count (reservation hint for the snapshot vector).
  std::vector<bool> turn_done(tgds.size(), false);
  std::vector<size_t> seen_upto(tgds.size(), 0);
  std::vector<size_t> prev_trigger_count(tgds.size(), 0);

  ResourceGovernor* governor = options.governor;
  bool truncated = false;
  bool budget_hit = false;
  // Records a governor trip: truncate like a local budget and remember the
  // trip status (first one wins) for ChaseResult::interrupt.
  auto governor_trip = [&](const Status& st) {
    truncated = true;
    budget_hit = true;
    if (result.interrupt.ok()) result.interrupt = st;
  };
  // Memory accounting: the chase charges the governor for the instance's
  // real arena growth (term pool, records, dedup slots, postings — see
  // Instance::MemoryBytes) beyond the caller-owned database baseline.
  // Growth is flushed in kChargeBatchBytes batches. The atoms stay either
  // way (already-derived consequences are sound); a failed charge just
  // stops further growth.
  size_t charged_upto = result.instance.MemoryBytes();
  auto charge_pending = [&]() {
    if (governor == nullptr) return;
    size_t now = result.instance.MemoryBytes();
    if (now <= charged_upto) return;
    size_t delta = now - charged_upto;
    charged_upto = now;
    Status st = governor->ChargeBytes(delta);
    if (!st.ok()) governor_trip(st);
  };
  // Fresh nulls are numbered per run, above every null of the input.
  int32_t next_null = 0;
  for (AtomId id = 0; id < database.size(); ++id) {
    for (const Term& t : database.view(id)) {
      if (t.IsNull()) next_null = std::max(next_null, t.id() + 1);
    }
  }
  // Reusable image buffer for trigger applications (no per-atom allocs).
  std::vector<Term> scratch;
  bool changed = true;
  while (changed && !budget_hit) {
    changed = false;
    ++result.rounds;
    for (size_t i = 0; i < tgds.size() && !budget_hit; ++i) {
      if (governor != nullptr) {
        Status st = governor->Check();
        if (!st.ok()) {
          governor_trip(st);
          break;
        }
      }
      const Tgd& tgd = tgds.tgds[i];
      // Snapshot the triggers of this turn before mutating the instance.
      // Atoms derived during the turn (by this tgd's own triggers) are
      // picked up at its next turn, under either strategy. Each trigger is
      // stored as its flat binding projected onto BodyVariables() order —
      // exactly the TriggerKey payload — instead of a Substitution copy;
      // the hash-map form is rebuilt only for triggers that survive the
      // processed-set filter.
      std::vector<std::vector<Term>> triggers;
      triggers.reserve(prev_trigger_count[i]);
      std::function<bool(const Substitution&)> collect =
          [&](const Substitution& sub) {
            triggers.push_back(sub.Apply(body_vars[i]));
            return true;
          };
      HomomorphismOptions hom_options;
      hom_options.counters = options.hom_counters;
      hom_options.governor = governor;
      const size_t turn_start = result.instance.size();
      if (!semi_naive || !turn_done[i]) {
        // First turn (or naive strategy): the delta is the whole instance.
        ForEachHomomorphism(tgd.body, result.instance, Substitution(),
                            collect, hom_options);
      } else if (seen_upto[i] < turn_start) {
        // Delta decomposition: for each body position k, enumerate the
        // homomorphisms whose atom k matches inside the delta while the
        // other atoms range over the full instance. The delta is exactly
        // the contiguous arena-id range [seen_upto, turn_start) — ids are
        // assigned in insertion order — so each predicate's share of it is
        // a contiguous SUBRANGE of its (sorted) postings, found by binary
        // search with no per-turn grouping pass or map. Every trigger that
        // uses at least one delta atom is found (at least) once; triggers
        // found via several positions are deduped by the processed set.
        for (size_t k = 0; k < tgd.body.size(); ++k) {
          // A body atom with a constant argument scans the by-arg postings
          // of its most selective constant position instead of the whole
          // predicate delta: both lists are sorted id lists, so the delta
          // window is the same two binary searches either way, and the
          // pinned enumeration never sees an atom the constant refutes.
          const Atom& pinned_atom = tgd.body[k];
          const std::vector<AtomId>* ids =
              &result.instance.IdsWith(pinned_atom.predicate);
          for (size_t pos = 0; pos < pinned_atom.args.size(); ++pos) {
            if (pinned_atom.args[pos].IsVariable()) continue;
            const std::vector<AtomId>& arg_ids = result.instance.IdsWithArg(
                pinned_atom.predicate, static_cast<int>(pos),
                pinned_atom.args[pos]);
            if (arg_ids.size() < ids->size()) ids = &arg_ids;
          }
          auto [first, last] =
              PostingsIdRange(*ids, static_cast<AtomId>(seen_upto[i]),
                              static_cast<AtomId>(turn_start));
          if (first == last) continue;
          ForEachHomomorphismPinned(tgd.body, k, first,
                                    static_cast<size_t>(last - first),
                                    result.instance, Substitution(),
                                    collect, hom_options);
        }
      }  // else: no new atoms since this tgd's last turn — no new triggers.
      turn_done[i] = true;
      seen_upto[i] = turn_start;
      prev_trigger_count[i] = triggers.size();
      result.triggers_enumerated += triggers.size();
      size_t trigger_tick = 0;
      for (std::vector<Term>& binding : triggers) {
        if (governor != nullptr &&
            ++trigger_tick % kTriggerCheckStride == 0) {
          Status st = governor->Check();
          if (!st.ok()) {
            governor_trip(st);
            break;
          }
        }
        TriggerKey key{i, std::move(binding)};
        if (processed.count(key) > 0) {
          ++result.redundant_triggers_skipped;
          continue;
        }
        // Rebuild the substitution form (needed for head application and
        // the nested hom searches) from the flat binding.
        Substitution trigger;
        for (size_t v = 0; v < body_vars[i].size(); ++v) {
          trigger.Bind(body_vars[i][v], key.binding[v]);
        }

        // Derivation level of the would-be head atoms, and (under
        // provenance tracking) the premise ids. Body images are existing
        // instance atoms — the trigger is a homomorphism into it — so one
        // arena probe per body atom resolves both, with no Atom
        // materialized.
        int level = 1;
        std::vector<AtomId> premise_ids;
        if (options.track_provenance) premise_ids.reserve(tgd.body.size());
        for (const Atom& b : tgd.body) {
          std::optional<AtomId> id =
              result.instance.FindId(ApplyToScratch(trigger, b, scratch));
          if (id.has_value()) {
            level = std::max(level, result.level_of[*id] + 1);
            if (options.track_provenance) premise_ids.push_back(*id);
          }
        }
        if (options.max_level >= 0 && level > options.max_level) {
          truncated = true;  // suppressed by depth budget
          continue;
        }

        if (options.variant == ChaseVariant::kRestricted) {
          // Applicable only if no extension satisfies the head already —
          // checked against the FULL instance under both strategies.
          if (SearchHomomorphism(tgd.head, result.instance, trigger,
                                 hom_options) == HomSearchOutcome::kFound) {
            processed.insert(std::move(key));
            continue;
          }
        }

        // Apply the trigger: fresh nulls for existential variables (the
        // premise ids were resolved above, before the binding is extended
        // in place — the trigger is dead after this iteration, no copy).
        for (const Term& z : tgd.ExistentialVariables()) {
          trigger.Bind(z, Term::NullWithId(next_null++));
        }
        for (const Atom& h : tgd.head) {
          Instance::AddOutcome added = result.instance.AddView(
              ApplyToScratch(trigger, h, scratch));
          if (added.inserted) {
            // Fresh ids are dense: the new atom's level lands at the end
            // of the parallel level column.
            result.level_of.push_back(level);
            if (options.track_provenance) {
              ChaseResult::Provenance why;
              why.tgd_index = i;
              why.premise_ids = premise_ids;
              result.provenance.emplace(added.id, std::move(why));
            }
            if (static_cast<size_t>(level) >=
                result.atoms_per_level.size()) {
              result.atoms_per_level.resize(static_cast<size_t>(level) + 1,
                                            0);
            }
            ++result.atoms_per_level[static_cast<size_t>(level)];
            result.max_level_reached =
                std::max(result.max_level_reached, level);
          }
        }
        ++result.steps;
        processed.insert(std::move(key));
        changed = true;

        if (governor != nullptr &&
            result.instance.MemoryBytes() - charged_upto >=
                kChargeBatchBytes) {
          charge_pending();
        }
        if (budget_hit) break;  // governor tripped on a byte charge
        if ((options.max_steps != 0 && result.steps >= options.max_steps) ||
            (options.max_atoms != 0 &&
             result.instance.size() >= options.max_atoms)) {
          truncated = true;
          budget_hit = true;
          break;
        }
      }
      charge_pending();  // turn boundary: settle the batch
    }
  }
  charge_pending();

  // A trip observed only inside trigger enumeration (the hom search bails
  // with a silently shortened trigger list) must still mark the run
  // incomplete: the "fixpoint" may be an artifact of the cut-off.
  if (governor != nullptr && governor->tripped() && result.interrupt.ok()) {
    truncated = true;
    result.interrupt = governor->TripStatus();
  }
  result.complete = !truncated;
  return result;
}

Result<std::vector<std::vector<Term>>> CertainAnswersViaChase(
    const ConjunctiveQuery& q, const Instance& database, const TgdSet& tgds,
    const ChaseOptions& options) {
  OMQC_RETURN_IF_ERROR(ValidateCQ(q));
  OMQC_ASSIGN_OR_RETURN(ChaseResult chased, Chase(database, tgds, options));
  if (!chased.complete) {
    if (!chased.interrupt.ok()) return chased.interrupt;
    return Status::ResourceExhausted(
        StrCat("chase budget exhausted after ", chased.steps,
               " steps (", chased.instance.size(), " atoms)"));
  }
  HomomorphismOptions hom_options;
  hom_options.counters = options.hom_counters;
  hom_options.governor = options.governor;
  auto answers = EvaluateCQ(q, chased.instance, hom_options);
  // Certain answers must be the COMPLETE set; a trip during evaluation
  // means answers may be missing, so degrade to the trip status.
  if (options.governor != nullptr && options.governor->tripped()) {
    return options.governor->TripStatus();
  }
  return answers;
}

}  // namespace omqc
