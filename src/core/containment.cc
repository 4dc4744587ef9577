#include "core/containment.h"

#include <algorithm>
#include <utility>

#include "base/governor.h"
#include "base/string_util.h"
#include "cache/cached_ops.h"
#include "logic/homomorphism.h"

namespace omqc {

const char* ContainmentOutcomeToString(ContainmentOutcome outcome) {
  switch (outcome) {
    case ContainmentOutcome::kContained:
      return "CONTAINED";
    case ContainmentOutcome::kNotContained:
      return "NOT_CONTAINED";
    case ContainmentOutcome::kUnknown:
      return "UNKNOWN";
  }
  return "UNKNOWN";
}

namespace {

/// The RHS check callback: "tuple ∈ Q2(D)?" for a frozen candidate. Exact
/// true/false, or an error Status (typically ResourceExhausted, or a
/// governor trip) when a budget prevented an exact answer. Per-call work
/// is tallied into `stats` (never null inside RunEngine). The governor is
/// passed PER CALL — evaluators may be cached across requests
/// (ArtifactKind::kRhsEvaluator) and must never store a request's
/// governor pointer.
using ContainsFn = std::function<Result<bool>(
    const Database&, const std::vector<Term>&, EngineStats*,
    ResourceGovernor*)>;

/// Evaluates "tuple ∈ Q2(D)" for the candidate-witness databases produced
/// during enumeration. Precomputes a UCQ rewriting for linear/sticky RHS
/// ontologies so repeated candidates do not re-run XRewrite. The evaluator
/// owns copies of everything it needs, so it is cacheable under
/// ArtifactKind::kRhsEvaluator and may be shared across containment calls
/// whose RHS is the same OMQ up to variable renaming. Contains() is const
/// and touches no mutable state, so server workers may share one cached
/// evaluator across concurrent requests.
class RhsEvaluator {
 public:
  /// Builds (or fetches from options.cache) the evaluator for `q2`. On a
  /// fresh build the one-time setup work is merged into `stats->rewrite`;
  /// on a hit only `stats->cache` is touched — the setup was paid by an
  /// earlier call.
  static Result<std::shared_ptr<const RhsEvaluator>> Make(
      const Omq& q2, const ContainmentOptions& options,
      EngineStats* stats = nullptr) {
    OmqCache* cache = options.cache;
    CacheCounters* counters = stats != nullptr ? &stats->cache : nullptr;
    CacheKey key;
    if (cache != nullptr) {
      key = CacheKey{FingerprintOmqParts(q2.data_schema, q2.tgds, q2.query),
                     EvalOptionsDigest(options.eval),
                     ArtifactKind::kRhsEvaluator};
      if (auto hit = cache->Get<RhsEvaluator>(key, counters)) return hit;
    }
    std::shared_ptr<RhsEvaluator> evaluator(
        new RhsEvaluator(q2, options.eval));
    TgdProfile profile = GetTgdProfile(cache, q2.tgds, counters);
    // Precompute the RHS rewriting only when the chase does not terminate
    // (for terminating sets, per-candidate chasing is cheaper than a
    // potentially large rewriting). The setup runs under the REQUEST
    // governor (attached per call, never stored: the cache digest ignores
    // it, and the cached artifact must not dangle into this request).
    if ((profile.primary == TgdClass::kLinear ||
         profile.primary == TgdClass::kSticky) &&
        !profile.non_recursive && !profile.full) {
      XRewriteStats setup;
      XRewriteOptions setup_rewrite = options.eval.rewrite;
      setup_rewrite.governor = options.governor;
      OMQC_ASSIGN_OR_RETURN(
          evaluator->rewriting_,
          CachedXRewrite(cache, q2.data_schema, q2.tgds, q2.query,
                         setup_rewrite, &setup, counters));
      if (stats != nullptr) stats->rewrite.Merge(setup);
    }
    if (cache != nullptr) {
      size_t bytes = sizeof(RhsEvaluator);
      if (evaluator->rewriting_ != nullptr) {
        bytes += ApproxBytes(*evaluator->rewriting_);
      }
      cache->Put<RhsEvaluator>(key, evaluator, bytes, counters);
    }
    return std::shared_ptr<const RhsEvaluator>(std::move(evaluator));
  }

  /// Exact answer or ResourceExhausted / governor trip (budgeted
  /// guarded/general RHS, a homomorphism step budget, or a tripped
  /// `governor`). The governor is a per-call overlay — this object may
  /// outlive the request that passed it (see ContainsFn).
  Result<bool> Contains(const Database& db, const std::vector<Term>& tuple,
                        EngineStats* stats,
                        ResourceGovernor* governor = nullptr) const {
    if (rewriting_ != nullptr) {
      HomomorphismOptions hom;
      hom.max_steps = eval_.hom_max_steps;
      hom.counters = stats != nullptr ? &stats->hom : nullptr;
      hom.governor = governor;
      bool exhausted = false;
      for (const ConjunctiveQuery& disjunct : rewriting_->disjuncts) {
        switch (TupleInAnswerBudgeted(disjunct, db, tuple, hom)) {
          case HomSearchOutcome::kFound:
            return true;
          case HomSearchOutcome::kExhausted:
            exhausted = true;  // another disjunct may still match
            break;
          case HomSearchOutcome::kNotFound:
            break;
        }
        if (governor != nullptr && governor->tripped()) break;
      }
      if (governor != nullptr && governor->tripped()) {
        return governor->TripStatus();
      }
      if (exhausted) {
        return Status::ResourceExhausted(
            StrCat("homomorphism step budget (", eval_.hom_max_steps,
                   ") exhausted on a RHS rewriting disjunct; cannot certify "
                   "a negative answer"));
      }
      return false;
    }
    if (governor == nullptr) return EvalTuple(q2_, db, tuple, eval_, stats);
    EvalOptions governed = eval_;
    governed.governor = governor;
    return EvalTuple(q2_, db, tuple, governed, stats);
  }

 private:
  RhsEvaluator(const Omq& q2, const EvalOptions& eval)
      : q2_(q2), eval_(eval) {
    // Cached across requests: never retain a request's governor (the
    // options digest ignores it, so a stored pointer would dangle into
    // whichever request happened to build the entry).
    eval_.governor = nullptr;
    eval_.rewrite.governor = nullptr;
  }

  Omq q2_;
  EvalOptions eval_;
  std::shared_ptr<const UnionOfCQs> rewriting_;
};

/// The shared engine: enumerate LHS rewriting disjuncts, freeze each, test
/// the frozen candidate against `contains` on the calling thread. The
/// first refuting candidate (in enumeration order) is the witness and
/// stops the enumeration; kContained / kUnknown are decided only after
/// every check has finished.
///
/// Governance: the run executes under a CHILD of options.governor (also
/// created when the caller passed none, where it simply never trips). The
/// child shares the caller's deadline/token/budget through the parent
/// chain and carries the run's probe counters, but owns its own token: a
/// refutation cancels the child, which stops the enumeration without
/// cancelling the caller's request, which may have sibling runs left.
/// Only a trip of the USER's governor degrades the outcome; a child-only
/// cancellation is the engine's own early exit and stays invisible.
Result<ContainmentResult> RunEngine(const Omq& q1,
                                    const ContainmentOptions& options,
                                    const ContainsFn& contains) {
  ContainmentResult result;
  bool refuted = false;
  bool inconclusive_rhs = false;
  std::string rhs_detail;
  XRewriteStats lhs_stats;   // written by the enumeration
  CacheCounters lhs_cache;   // cache traffic of the enumeration itself
  EngineStats check_stats;   // merged RHS-check work
  ResourceGovernor run_governor(options.governor);

  // Snapshot the child's counters into the result on every return path
  // (including error returns from the enumeration).
  struct CountersScope {
    ResourceGovernor* governor;
    ContainmentResult* result;
    ~CountersScope() { result->stats.governor.Merge(governor->counters()); }
  } counters_scope{&run_governor, &result};

  // Folds one finished RHS check into the run state.
  auto record = [&](Result<bool> r, FrozenQuery frozen, EngineStats local) {
    check_stats.Merge(local);
    if (!r.ok()) {
      if (r.status().code() == StatusCode::kResourceExhausted) {
        ++check_stats.budget_exhaustions;
      }
      inconclusive_rhs = true;
      if (rhs_detail.empty()) rhs_detail = r.status().ToString();
      return;  // keep scanning for a definite refutation
    }
    if (*r) {
      ++check_stats.witnesses_rejected;  // candidate failed to refute
      return;
    }
    refuted = true;
    result.witness = ContainmentWitness{std::move(frozen.database),
                                        std::move(frozen.answer_tuple)};
    run_governor.Cancel();  // stop the enumeration
  };

  std::function<bool(const ConjunctiveQuery&)> on_disjunct =
      [&](const ConjunctiveQuery& p) {
        if (refuted) return false;
        ++result.candidates_checked;
        result.max_witness_size = std::max(result.max_witness_size, p.size());
        FrozenQuery frozen = Freeze(p);
        EngineStats local;
        Result<bool> r = contains(frozen.database, frozen.answer_tuple,
                                  &local, &run_governor);
        record(std::move(r), std::move(frozen), std::move(local));
        return !refuted;
      };

  // The enumeration runs under the child too, so a refutation (or the
  // user's deadline) also stops LHS rewriting between disjuncts.
  XRewriteOptions lhs_options = options.rewrite;
  lhs_options.governor = &run_governor;
  OMQC_ASSIGN_OR_RETURN(
      RewriteEnumeration outcome,
      CachedEnumerateRewritings(options.cache, q1.data_schema, q1.tgds,
                                q1.query, lhs_options, on_disjunct,
                                &lhs_stats, &lhs_cache));

  result.stats.Merge(check_stats);
  result.stats.rewrite.Merge(lhs_stats);
  result.stats.cache.Merge(lhs_cache);
  result.stats.disjuncts_checked += result.candidates_checked;

  // A definite answer is never flipped by a trip: a refutation found
  // before the trip stands, and kContained requires a saturated
  // enumeration with every RHS check conclusive — impossible once the
  // user governor tripped, because tripped checks come back inconclusive.
  if (refuted) {
    result.outcome = ContainmentOutcome::kNotContained;
    return result;
  }
  bool user_tripped =
      options.governor != nullptr && options.governor->tripped();
  if (outcome == RewriteEnumeration::kSaturated && !inconclusive_rhs &&
      !user_tripped) {
    result.outcome = ContainmentOutcome::kContained;
    return result;
  }
  result.outcome = ContainmentOutcome::kUnknown;
  if (user_tripped) {
    result.detail = StrCat(
        "request governor tripped: ",
        options.governor->TripStatus().ToString(), " after ",
        result.candidates_checked,
        " candidates (partial result: no refutation found so far)");
  } else if (outcome == RewriteEnumeration::kBudgetExhausted) {
    result.detail =
        StrCat("LHS rewriting enumeration hit its budget after ",
               result.candidates_checked,
               " candidates (infinite perfect rewriting?)");
  } else {
    result.detail = StrCat("RHS evaluation was inconclusive: ", rhs_detail);
  }
  return result;
}

Status CheckCompatible(const Omq& q1, const Omq& q2) {
  OMQC_RETURN_IF_ERROR(ValidateOmq(q1));
  OMQC_RETURN_IF_ERROR(ValidateOmq(q2));
  if (q1.AnswerArity() != q2.AnswerArity()) {
    return Status::InvalidArgument(
        StrCat("answer arity mismatch: ", q1.AnswerArity(), " vs ",
               q2.AnswerArity()));
  }
  for (const Predicate& p : q1.data_schema.predicates()) {
    if (!q2.data_schema.Contains(p)) {
      return Status::InvalidArgument(
          StrCat("data schemas differ: ", p.ToString(),
                 " is missing on the right"));
    }
  }
  for (const Predicate& p : q2.data_schema.predicates()) {
    if (!q1.data_schema.Contains(p)) {
      return Status::InvalidArgument(
          StrCat("data schemas differ: ", p.ToString(),
                 " is missing on the left"));
    }
  }
  return Status::OK();
}

/// Propagates the containment-level cache into the RHS evaluation options
/// (and vice versa) so one `--cache` switch covers every layer; an
/// explicitly set eval cache wins. The governor propagates the same way:
/// one governor set at either level bounds the whole request.
ContainmentOptions EffectiveOptions(const ContainmentOptions& options) {
  ContainmentOptions local = options;
  if (local.eval.cache == nullptr) local.eval.cache = local.cache;
  if (local.cache == nullptr) local.cache = local.eval.cache;
  if (local.governor == nullptr) local.governor = local.eval.governor;
  return local;
}

}  // namespace

Result<ContainmentResult> CheckContainment(const Omq& q1, const Omq& q2,
                                           const ContainmentOptions& opts) {
  ContainmentOptions options = EffectiveOptions(opts);
  OMQC_RETURN_IF_ERROR(CheckCompatible(q1, q2));
  EngineStats setup_stats;
  OMQC_ASSIGN_OR_RETURN(std::shared_ptr<const RhsEvaluator> rhs,
                        RhsEvaluator::Make(q2, options, &setup_stats));
  OMQC_ASSIGN_OR_RETURN(
      ContainmentResult result,
      RunEngine(q1, options,
                [&rhs](const Database& db, const std::vector<Term>& tuple,
                       EngineStats* stats, ResourceGovernor* governor) {
                  return rhs->Contains(db, tuple, stats, governor);
                }));
  result.stats.Merge(setup_stats);
  return result;
}

Result<ContainmentResult> CheckContainmentInUcq(
    const Omq& q1, const UnionOfCQs& ucq, const ContainmentOptions& opts) {
  ContainmentOptions options = EffectiveOptions(opts);
  OMQC_RETURN_IF_ERROR(ValidateOmq(q1));
  for (const ConjunctiveQuery& disjunct : ucq.disjuncts) {
    OMQC_RETURN_IF_ERROR(ValidateCQ(disjunct));
    if (disjunct.answer_vars.size() != q1.AnswerArity()) {
      return Status::InvalidArgument("UCQ answer arity mismatch");
    }
  }
  return RunEngine(
      q1, options,
      [&ucq, &options](const Database& db, const std::vector<Term>& tuple,
                       EngineStats* stats,
                       ResourceGovernor* governor) -> Result<bool> {
        HomomorphismOptions hom;
        hom.max_steps = options.eval.hom_max_steps;
        hom.counters = stats != nullptr ? &stats->hom : nullptr;
        hom.governor = governor;
        bool exhausted = false;
        for (const ConjunctiveQuery& disjunct : ucq.disjuncts) {
          switch (TupleInAnswerBudgeted(disjunct, db, tuple, hom)) {
            case HomSearchOutcome::kFound:
              return true;
            case HomSearchOutcome::kExhausted:
              exhausted = true;
              break;
            case HomSearchOutcome::kNotFound:
              break;
          }
          if (governor != nullptr && governor->tripped()) break;
        }
        if (governor != nullptr && governor->tripped()) {
          return governor->TripStatus();
        }
        if (exhausted) {
          return Status::ResourceExhausted(
              StrCat("homomorphism step budget (",
                     options.eval.hom_max_steps,
                     ") exhausted on a RHS UCQ disjunct; cannot certify a "
                     "negative answer"));
        }
        return false;
      });
}

Result<ContainmentResult> CheckUcqOmqContainment(
    const UcqOmq& q1, const UcqOmq& q2, const ContainmentOptions& opts) {
  ContainmentOptions options = EffectiveOptions(opts);
  ContainmentResult merged;
  merged.outcome = ContainmentOutcome::kContained;
  // RHS keeps its UCQ: build one evaluator per RHS disjunct-OMQ up front
  // (validating each, and precomputing its rewriting where applicable)
  // instead of re-assembling an Omq and re-deciding chase-vs-rewrite for
  // every candidate of every LHS disjunct.
  std::vector<std::shared_ptr<const RhsEvaluator>> rhs_evaluators;
  rhs_evaluators.reserve(q2.query.disjuncts.size());
  for (const ConjunctiveQuery& d : q2.query.disjuncts) {
    Omq rhs_omq{q2.data_schema, q2.tgds, d};
    OMQC_RETURN_IF_ERROR(ValidateOmq(rhs_omq));
    OMQC_ASSIGN_OR_RETURN(std::shared_ptr<const RhsEvaluator> evaluator,
                          RhsEvaluator::Make(rhs_omq, options, &merged.stats));
    rhs_evaluators.push_back(std::move(evaluator));
  }
  const auto contains = [&rhs_evaluators](
                            const Database& db,
                            const std::vector<Term>& tuple,
                            EngineStats* stats,
                            ResourceGovernor* governor) -> Result<bool> {
    for (const auto& evaluator : rhs_evaluators) {
      OMQC_ASSIGN_OR_RETURN(bool in,
                            evaluator->Contains(db, tuple, stats, governor));
      if (in) return true;
    }
    return false;
  };
  for (const ConjunctiveQuery& disjunct : q1.query.disjuncts) {
    // A tripped request governor makes every further run inconclusive;
    // stop burning the remaining wall clock on runs that cannot certify.
    if (options.governor != nullptr && options.governor->tripped()) {
      merged.outcome = ContainmentOutcome::kUnknown;
      merged.detail =
          StrCat("request governor tripped: ",
                 options.governor->TripStatus().ToString(),
                 "; remaining LHS disjuncts skipped");
      return merged;
    }
    Omq lhs{q1.data_schema, q1.tgds, disjunct};
    OMQC_RETURN_IF_ERROR(ValidateOmq(lhs));
    OMQC_ASSIGN_OR_RETURN(ContainmentResult partial,
                          RunEngine(lhs, options, contains));
    merged.candidates_checked += partial.candidates_checked;
    merged.max_witness_size =
        std::max(merged.max_witness_size, partial.max_witness_size);
    merged.stats.Merge(partial.stats);
    if (partial.outcome == ContainmentOutcome::kNotContained) {
      merged.outcome = ContainmentOutcome::kNotContained;
      merged.witness = std::move(partial.witness);
      return merged;
    }
    if (partial.outcome == ContainmentOutcome::kUnknown) {
      merged.outcome = ContainmentOutcome::kUnknown;
      merged.detail = std::move(partial.detail);
    }
  }
  return merged;
}

Result<ContainmentResult> CheckEquivalence(const Omq& q1, const Omq& q2,
                                           const ContainmentOptions& options) {
  OMQC_ASSIGN_OR_RETURN(ContainmentResult forward,
                        CheckContainment(q1, q2, options));
  if (forward.outcome != ContainmentOutcome::kContained) return forward;
  OMQC_ASSIGN_OR_RETURN(ContainmentResult backward,
                        CheckContainment(q2, q1, options));
  backward.candidates_checked += forward.candidates_checked;
  backward.stats.Merge(forward.stats);
  return backward;
}

}  // namespace omqc
