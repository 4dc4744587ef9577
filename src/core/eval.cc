#include "core/eval.h"

#include <algorithm>
#include <set>
#include <utility>

#include "base/string_util.h"
#include "cache/cached_ops.h"
#include "logic/homomorphism.h"
#include "tgd/classify.h"

namespace omqc {
namespace {

Status CheckDatabaseSchema(const Omq& omq, const Database& database) {
  if (!database.IsDatabase()) {
    return Status::InvalidArgument("input instance contains nulls");
  }
  Schema db_schema = database.InducedSchema();
  for (const Predicate& p : db_schema.predicates()) {
    if (!omq.data_schema.Contains(p)) {
      return Status::InvalidArgument(
          StrCat("database predicate ", p.ToString(),
                 " is not in the data schema"));
    }
  }
  return Status::OK();
}

/// Rewriting pays off only for the UCQ-rewritable classes whose chase may
/// not terminate: when the chase provably terminates it is usually much
/// cheaper (the rewriting of sticky sets can be exponential, Prop. 17).
bool UsesRewriting(const TgdProfile& profile) {
  return (profile.primary == TgdClass::kLinear ||
          profile.primary == TgdClass::kSticky) &&
         !profile.ChaseTerminates();
}

ChaseOptions ChaseOptionsFor(const TgdProfile& profile,
                             const EvalOptions& options) {
  ChaseOptions chase;
  chase.variant = ChaseVariant::kRestricted;
  chase.max_atoms = options.chase_max_atoms;
  chase.governor = options.governor;
  if (!profile.ChaseTerminates()) chase.max_level = options.chase_max_level;
  return chase;
}

/// Snapshots the request governor's counters into stats on scope exit, so
/// every return path of an entry point reports them.
struct GovernorStatsScope {
  ResourceGovernor* governor;
  EngineStats* stats;
  ~GovernorStatsScope() {
    if (governor != nullptr && stats != nullptr) {
      stats->governor.Merge(governor->counters());
    }
  }
};

/// Folds a finished chase run into `stats` (no-op on nullptr).
void RecordChase(const ChaseResult& chased, size_t database_size,
                 EngineStats* stats) {
  if (stats == nullptr) return;
  stats->chase_steps += chased.steps;
  stats->chase_atoms_derived += chased.instance.size() - database_size;
  stats->chase_max_level =
      std::max(stats->chase_max_level, chased.max_level_reached);
  stats->chase_delta_rounds += chased.rounds;
  stats->chase_triggers_enumerated += chased.triggers_enumerated;
  stats->chase_redundant_triggers_skipped +=
      chased.redundant_triggers_skipped;
}

uint64_t Fold(uint64_t h, uint64_t v) {
  return (h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2))) *
         0x00000100000001b3ULL;
}

/// Digest of every ChaseOptions field that can change the chase result
/// (governor and counter pointers excluded: they bound resources or tally
/// work, and only *complete* chases are cached — a fixpoint is the same
/// fixpoint under any governor that let it finish).
uint64_t ChaseOptionsDigestFor(const ChaseOptions& chase) {
  uint64_t h = 0xa0761d6478bd642fULL;
  h = Fold(h, static_cast<uint64_t>(chase.variant));
  h = Fold(h, static_cast<uint64_t>(chase.strategy));
  h = Fold(h, chase.max_steps);
  h = Fold(h, chase.max_atoms);
  h = Fold(h, static_cast<uint64_t>(static_cast<int64_t>(chase.max_level)));
  return h;
}

}  // namespace

Result<OmqEvaluator> OmqEvaluator::Prepare(const Omq& omq,
                                           const EvalOptions& options,
                                           EngineStats* stats) {
  return PrepareParts(omq.data_schema, omq.tgds, {&omq.query}, options,
                      stats);
}

Result<OmqEvaluator> OmqEvaluator::Prepare(const UcqOmq& omq,
                                           const EvalOptions& options,
                                           EngineStats* stats) {
  std::vector<const ConjunctiveQuery*> disjuncts;
  disjuncts.reserve(omq.query.disjuncts.size());
  for (const ConjunctiveQuery& d : omq.query.disjuncts) {
    disjuncts.push_back(&d);
  }
  return PrepareParts(omq.data_schema, omq.tgds, std::move(disjuncts),
                      options, stats);
}

Result<OmqEvaluator> OmqEvaluator::PrepareParts(
    const Schema& data_schema, const TgdSet& tgds,
    std::vector<const ConjunctiveQuery*> disjuncts,
    const EvalOptions& options, EngineStats* stats) {
  OMQC_RETURN_IF_ERROR(ValidateTgdSet(tgds));
  for (const ConjunctiveQuery* d : disjuncts) {
    OMQC_RETURN_IF_ERROR(ValidateCQ(*d));
  }
  OmqEvaluator evaluator;
  evaluator.tgds_ = &tgds;
  evaluator.options_ = options;
  TgdProfile profile = GetTgdProfile(tgds);
  if (!UsesRewriting(profile)) {
    if (profile.primary != TgdClass::kEmpty) {
      evaluator.chase_ = ChaseOptionsFor(profile, options);
    }
    evaluator.match_ = std::move(disjuncts);
    return evaluator;
  }
  // The rewriting runs under the request governor; the cache key ignores
  // it, so a cached rewriting is reusable by differently governed requests.
  XRewriteOptions rewrite = options.rewrite;
  rewrite.governor = options.governor;
  for (const ConjunctiveQuery* d : disjuncts) {
    XRewriteStats rewrite_stats;  // XRewrite assigns some fields: merge
    OMQC_ASSIGN_OR_RETURN(
        std::shared_ptr<const UnionOfCQs> rewriting,
        CachedXRewrite(options.cache, data_schema, tgds, *d, rewrite,
                       &rewrite_stats,
                       stats != nullptr ? &stats->cache : nullptr));
    if (stats != nullptr) stats->rewrite.Merge(rewrite_stats);
    for (const ConjunctiveQuery& r : rewriting->disjuncts) {
      evaluator.match_.push_back(&r);
    }
    evaluator.rewritings_.push_back(std::move(rewriting));
  }
  return evaluator;
}

Result<bool> OmqEvaluator::Contains(const Database& database,
                                    const std::vector<Term>& tuple,
                                    EngineStats* stats) const {
  HomomorphismOptions hom;
  hom.max_steps = options_.hom_max_steps;
  hom.counters = stats != nullptr ? &stats->hom : nullptr;
  hom.governor = options_.governor;
  std::optional<ChaseResult> chased;
  if (chase_.has_value()) {
    ChaseOptions chase_options = *chase_;
    chase_options.hom_counters = hom.counters;
    OMQC_ASSIGN_OR_RETURN(chased, Chase(database, *tgds_, chase_options));
    RecordChase(*chased, database.size(), stats);
  }
  const Instance& target = chased.has_value() ? chased->instance : database;
  // One chase serves every disjunct: the tuple is in the answer as soon as
  // one matches, whatever budget stopped the others.
  bool exhausted = false;
  for (const ConjunctiveQuery* q : match_) {
    switch (TupleInAnswerBudgeted(*q, target, tuple, hom)) {
      case HomSearchOutcome::kFound:
        return true;  // sound even on a truncated chase
      case HomSearchOutcome::kExhausted:
        exhausted = true;  // keep looking: another disjunct may match
        break;
      case HomSearchOutcome::kNotFound:
        break;
    }
  }
  if (exhausted) {
    return TripStatusOr(
        options_.governor,
        Status::ResourceExhausted(
            StrCat("homomorphism step budget (", options_.hom_max_steps,
                   ") exhausted; cannot certify a negative answer")));
  }
  if (chased.has_value() && !chased->complete) {
    if (!chased->interrupt.ok()) return chased->interrupt;
    return Status::ResourceExhausted(
        StrCat("chase budget exhausted (", chased->instance.size(),
               " atoms, level ", chased->max_level_reached,
               "); cannot certify a negative answer"));
  }
  return false;
}

Result<std::vector<std::vector<Term>>> OmqEvaluator::Answers(
    const Database& database, EngineStats* stats) const {
  HomomorphismOptions hom;
  hom.counters = stats != nullptr ? &stats->hom : nullptr;
  hom.governor = options_.governor;
  // Chase-result caching: the chase of D under Σ is determined by (D, Σ,
  // chase options), and answers over an equal restored instance are
  // identical because EvaluateCQ only emits constant tuples ("nulls are
  // not answers") and constants are interned by name. Only complete
  // (fixpoint) chases are cached; truncated chases depend on what stopped
  // them and are recomputed.
  std::shared_ptr<const CachedChase> chase_entry;
  if (chase_.has_value()) {
    ChaseOptions chase_options = *chase_;
    chase_options.hom_counters = hom.counters;
    CacheCounters* cache_counters = stats != nullptr ? &stats->cache : nullptr;
    OmqCache* cache = options_.cache;
    CacheKey chase_key;
    if (cache != nullptr) {
      chase_key = ChaseCacheKey(database, *tgds_,
                                ChaseOptionsDigestFor(chase_options));
      chase_entry = cache->Get<CachedChase>(chase_key, cache_counters);
    }
    if (chase_entry == nullptr) {
      OMQC_ASSIGN_OR_RETURN(ChaseResult chased,
                            Chase(database, *tgds_, chase_options));
      RecordChase(chased, database.size(), stats);
      if (!chased.complete) {
        if (!chased.interrupt.ok()) return chased.interrupt;
        return Status::ResourceExhausted(
            StrCat("chase budget exhausted (", chased.instance.size(),
                   " atoms); the answer set may be incomplete"));
      }
      auto computed = std::make_shared<CachedChase>();
      computed->instance = std::move(chased.instance);
      if (cache != nullptr) {
        cache->Put<CachedChase>(chase_key, computed,
                                computed->instance.MemoryBytes(),
                                cache_counters);
      }
      chase_entry = std::move(computed);
    } else if (options_.governor != nullptr) {
      // A hit charges the growth the cold chase charged (the saturated
      // instance's bytes over the database baseline), so the status under
      // a memory budget does not depend on who warmed the cache.
      const size_t saturated = chase_entry->instance.MemoryBytes();
      const size_t baseline = database.MemoryBytes();
      if (saturated > baseline) {
        OMQC_RETURN_IF_ERROR(
            options_.governor->ChargeBytes(saturated - baseline));
      }
    }
    // On a hit no chase ran: the chase counters stay untouched (EngineStats
    // counters mean work performed; the saved chase shows up in `cache`).
  }
  const Instance& target =
      chase_entry != nullptr ? chase_entry->instance : database;
  std::set<std::vector<Term>> answers;
  for (const ConjunctiveQuery* q : match_) {
    if (options_.governor != nullptr && options_.governor->tripped()) break;
    for (std::vector<Term>& tuple : EvaluateCQ(*q, target, hom)) {
      answers.insert(std::move(tuple));
    }
  }
  // The full answer set is the contract; a trip mid-enumeration means
  // answers may be missing, so degrade to the trip status.
  if (options_.governor != nullptr && options_.governor->tripped()) {
    return options_.governor->TripStatus();
  }
  return std::vector<std::vector<Term>>(answers.begin(), answers.end());
}

Result<bool> EvalTuple(const Omq& omq, const Database& database,
                       const std::vector<Term>& tuple,
                       const EvalOptions& options, EngineStats* stats) {
  GovernorStatsScope governor_scope{options.governor, stats};
  OMQC_ASSIGN_OR_RETURN(OmqEvaluator evaluator,
                        OmqEvaluator::Prepare(omq, options, stats));
  OMQC_RETURN_IF_ERROR(CheckDatabaseSchema(omq, database));
  if (tuple.size() != omq.AnswerArity()) {
    return Status::InvalidArgument("answer tuple arity mismatch");
  }
  return evaluator.Contains(database, tuple, stats);
}

Result<std::vector<std::vector<Term>>> EvalAll(const Omq& omq,
                                               const Database& database,
                                               const EvalOptions& options,
                                               EngineStats* stats) {
  GovernorStatsScope governor_scope{options.governor, stats};
  OMQC_ASSIGN_OR_RETURN(OmqEvaluator evaluator,
                        OmqEvaluator::Prepare(omq, options, stats));
  OMQC_RETURN_IF_ERROR(CheckDatabaseSchema(omq, database));
  return evaluator.Answers(database, stats);
}

Result<bool> EvalBoolean(const Omq& omq, const Database& database,
                         const EvalOptions& options, EngineStats* stats) {
  if (!omq.query.IsBoolean()) {
    return Status::InvalidArgument("EvalBoolean expects a Boolean OMQ");
  }
  return EvalTuple(omq, database, {}, options, stats);
}

}  // namespace omqc
