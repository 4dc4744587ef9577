#include "core/eval.h"

#include <algorithm>

#include "base/string_util.h"
#include "cache/cached_ops.h"
#include "logic/homomorphism.h"

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

enum class Path { kChase, kRewrite };

Path ChoosePath(const TgdProfile& profile, const EvalOptions& options) {
  switch (options.strategy) {
    case EvalOptions::Strategy::kChase:
      return Path::kChase;
    case EvalOptions::Strategy::kRewrite:
      return Path::kRewrite;
    case EvalOptions::Strategy::kAuto:
      break;
  }
  switch (profile.primary) {
    case TgdClass::kLinear:
    case TgdClass::kSticky:
      // The chase is usually much cheaper when it provably terminates
      // (the rewriting of sticky sets can be exponential, Prop. 17);
      // fall back to rewriting only for genuinely recursive,
      // null-inventing sets.
      return profile.ChaseTerminates() ? Path::kChase : Path::kRewrite;
    default:
      return Path::kChase;
  }
}

ChaseOptions ChaseOptionsFor(const TgdProfile& profile,
                             const EvalOptions& options) {
  ChaseOptions chase;
  chase.variant = ChaseVariant::kRestricted;
  chase.max_atoms = options.chase_max_atoms;
  chase.governor = options.governor;
  if (profile.primary != TgdClass::kEmpty && !profile.ChaseTerminates()) {
    chase.max_level = options.chase_max_level;
  }
  return chase;
}

/// Overlays the request governor onto the rewriting options (the stored
/// options travel through the cache layer, whose digest ignores the
/// governor, so per-request attachment is safe).
XRewriteOptions GovernedRewriteOptions(const EvalOptions& options) {
  XRewriteOptions rewrite = options.rewrite;
  rewrite.governor = options.governor;
  return rewrite;
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
/// (governor and counter pointers excluded, exactly like EvalOptionsDigest:
/// they bound resources or tally work, and only *complete* chases are
/// cached — a fixpoint is the same fixpoint under any governor that let it
/// finish).
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

uint64_t EvalOptionsDigest(const EvalOptions& options) {
  uint64_t h = 0x2545f4914f6cdd1dULL;
  h = Fold(h, static_cast<uint64_t>(options.strategy));
  h = Fold(h, options.chase_max_atoms);
  h = Fold(h, static_cast<uint64_t>(options.chase_max_level));
  h = Fold(h, options.hom_max_steps);
  h = Fold(h, XRewriteOptionsDigest(options.rewrite));
  return h;
}

Result<bool> EvalTuple(const Omq& omq, const Database& database,
                       const std::vector<Term>& tuple,
                       const EvalOptions& options, EngineStats* stats) {
  OMQC_RETURN_IF_ERROR(ValidateOmq(omq));
  OMQC_RETURN_IF_ERROR(CheckDatabaseSchema(omq, database));
  if (tuple.size() != omq.AnswerArity()) {
    return Status::InvalidArgument("answer tuple arity mismatch");
  }
  GovernorStatsScope governor_scope{options.governor, stats};
  HomomorphismOptions hom_options;
  hom_options.max_steps = options.hom_max_steps;
  hom_options.counters = stats != nullptr ? &stats->hom : nullptr;
  hom_options.governor = options.governor;
  CacheCounters* cache_counters = stats != nullptr ? &stats->cache : nullptr;
  TgdProfile profile = GetTgdProfile(options.cache, omq.tgds, cache_counters);
  if (ChoosePath(profile, options) == Path::kRewrite) {
    OMQC_ASSIGN_OR_RETURN(
        std::shared_ptr<const UnionOfCQs> rewriting,
        CachedXRewrite(options.cache, omq.data_schema, omq.tgds, omq.query,
                       GovernedRewriteOptions(options),
                       stats != nullptr ? &stats->rewrite : nullptr,
                       cache_counters));
    bool exhausted = false;
    for (const ConjunctiveQuery& disjunct : rewriting->disjuncts) {
      switch (TupleInAnswerBudgeted(disjunct, database, tuple, hom_options)) {
        case HomSearchOutcome::kFound:
          return true;
        case HomSearchOutcome::kExhausted:
          exhausted = true;  // keep looking: another disjunct may match
          break;
        case HomSearchOutcome::kNotFound:
          break;
      }
    }
    if (exhausted) {
      return TripStatusOr(
          options.governor,
          Status::ResourceExhausted(
              StrCat("homomorphism step budget (", options.hom_max_steps,
                     ") exhausted on a rewriting disjunct; cannot certify a "
                     "negative answer")));
    }
    return false;
  }
  ChaseOptions chase_options = ChaseOptionsFor(profile, options);
  chase_options.hom_counters = hom_options.counters;
  OMQC_ASSIGN_OR_RETURN(ChaseResult chased,
                        Chase(database, omq.tgds, chase_options));
  RecordChase(chased, database.size(), stats);
  switch (TupleInAnswerBudgeted(omq.query, chased.instance, tuple,
                                hom_options)) {
    case HomSearchOutcome::kFound:
      return true;  // sound even on a truncated chase
    case HomSearchOutcome::kExhausted:
      return TripStatusOr(
          options.governor,
          Status::ResourceExhausted(
              StrCat("homomorphism step budget (", options.hom_max_steps,
                     ") exhausted on the chase instance; cannot certify a "
                     "negative answer")));
    case HomSearchOutcome::kNotFound:
      break;
  }
  if (!chased.complete) {
    if (!chased.interrupt.ok()) return chased.interrupt;
    return Status::ResourceExhausted(
        StrCat("chase budget exhausted (", chased.instance.size(),
               " atoms, level ", chased.max_level_reached,
               "); cannot certify a negative answer"));
  }
  return false;
}

Result<std::vector<std::vector<Term>>> EvalAll(const Omq& omq,
                                               const Database& database,
                                               const EvalOptions& options,
                                               EngineStats* stats) {
  OMQC_RETURN_IF_ERROR(ValidateOmq(omq));
  OMQC_RETURN_IF_ERROR(CheckDatabaseSchema(omq, database));
  GovernorStatsScope governor_scope{options.governor, stats};
  HomomorphismOptions hom_options;
  hom_options.counters = stats != nullptr ? &stats->hom : nullptr;
  hom_options.governor = options.governor;
  CacheCounters* cache_counters = stats != nullptr ? &stats->cache : nullptr;
  TgdProfile profile = GetTgdProfile(options.cache, omq.tgds, cache_counters);
  if (ChoosePath(profile, options) == Path::kRewrite) {
    OMQC_ASSIGN_OR_RETURN(
        std::shared_ptr<const UnionOfCQs> rewriting,
        CachedXRewrite(options.cache, omq.data_schema, omq.tgds, omq.query,
                       GovernedRewriteOptions(options),
                       stats != nullptr ? &stats->rewrite : nullptr,
                       cache_counters));
    auto answers = EvaluateUCQ(*rewriting, database, hom_options);
    // The full answer set is the contract; a trip mid-enumeration means
    // answers may be missing, so degrade to the trip status.
    if (options.governor != nullptr && options.governor->tripped()) {
      return options.governor->TripStatus();
    }
    return answers;
  }
  ChaseOptions chase_options = ChaseOptionsFor(profile, options);
  chase_options.hom_counters = hom_options.counters;
  // Chase-result caching: the chase of D under Σ is determined by (D, Σ,
  // chase options), and answers over an equal restored instance are
  // identical because EvaluateCQ only emits constant tuples ("nulls are
  // not answers") and constants are interned by name. Only complete
  // (fixpoint) chases are cached; truncated chases depend on what stopped
  // them and are recomputed.
  std::shared_ptr<const CachedChase> chase_entry;
  CacheKey chase_key;
  if (options.cache != nullptr) {
    chase_key = ChaseCacheKey(database, omq.tgds,
                              ChaseOptionsDigestFor(chase_options));
    chase_entry = options.cache->Get<CachedChase>(chase_key, cache_counters);
  }
  if (chase_entry == nullptr) {
    OMQC_ASSIGN_OR_RETURN(ChaseResult chased,
                          Chase(database, omq.tgds, chase_options));
    RecordChase(chased, database.size(), stats);
    if (!chased.complete) {
      if (!chased.interrupt.ok()) return chased.interrupt;
      return Status::ResourceExhausted(
          StrCat("chase budget exhausted (", chased.instance.size(),
                 " atoms); the answer set may be incomplete"));
    }
    auto computed = std::make_shared<CachedChase>();
    computed->instance = std::move(chased.instance);
    if (options.cache != nullptr) {
      options.cache->Put<CachedChase>(chase_key, computed,
                                      computed->instance.MemoryBytes(),
                                      cache_counters);
    }
    chase_entry = std::move(computed);
  } else if (options.governor != nullptr) {
    // A hit charges the growth the cold chase charged (the saturated
    // instance's bytes over the database baseline), so the status under a
    // memory budget does not depend on who warmed the cache.
    const size_t saturated = chase_entry->instance.MemoryBytes();
    const size_t baseline = database.MemoryBytes();
    if (saturated > baseline) {
      OMQC_RETURN_IF_ERROR(
          options.governor->ChargeBytes(saturated - baseline));
    }
  }
  // On a hit no chase ran: the chase counters stay untouched (EngineStats
  // counters mean work performed; the saved chase shows up in `cache`).
  auto answers = EvaluateCQ(omq.query, chase_entry->instance, hom_options);
  if (options.governor != nullptr && options.governor->tripped()) {
    return options.governor->TripStatus();
  }
  return answers;
}

Result<bool> EvalBoolean(const Omq& omq, const Database& database,
                         const EvalOptions& options, EngineStats* stats) {
  if (!omq.query.IsBoolean()) {
    return Status::InvalidArgument("EvalBoolean expects a Boolean OMQ");
  }
  return EvalTuple(omq, database, {}, options, stats);
}

}  // namespace omqc
