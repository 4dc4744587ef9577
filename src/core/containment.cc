#include "core/containment.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "base/governor.h"
#include "base/string_util.h"
#include "cache/cached_ops.h"

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

/// The shared engine: enumerate LHS rewriting disjuncts, freeze each, test
/// the frozen candidate against the prepared RHS on the calling thread. The
/// first refuting candidate (in enumeration order) is the witness and
/// stops the enumeration: the callback returns false, and the enumeration
/// reports no further disjunct. kContained / kUnknown are decided only
/// after every check has finished.
///
/// Governance: the enumeration and every RHS check run under the request's
/// governor (options.governor, possibly null), which `rhs` was prepared
/// with. Only a trip of that governor degrades the outcome.
Result<ContainmentResult> RunEngine(const Omq& q1,
                                    const ContainmentOptions& options,
                                    const OmqEvaluator& rhs) {
  ContainmentResult result;
  bool refuted = false;
  bool inconclusive_rhs = false;
  std::string rhs_detail;
  XRewriteStats lhs_stats;   // written by the enumeration
  CacheCounters lhs_cache;   // cache traffic of the enumeration itself
  EngineStats check_stats;   // merged RHS-check work

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
  };

  std::function<bool(const ConjunctiveQuery&)> on_disjunct =
      [&](const ConjunctiveQuery& p) {
        ++result.candidates_checked;
        result.max_witness_size = std::max(result.max_witness_size, p.size());
        FrozenQuery frozen = Freeze(p);
        EngineStats local;
        Result<bool> r =
            rhs.Contains(frozen.database, frozen.answer_tuple, &local);
        record(std::move(r), std::move(frozen), std::move(local));
        return !refuted;
      };

  XRewriteOptions lhs_options = options.rewrite;
  lhs_options.governor = options.governor;
  OMQC_ASSIGN_OR_RETURN(
      RewriteEnumeration outcome,
      CachedEnumerateRewritings(options.cache, q1.data_schema, q1.tgds,
                                q1.query, lhs_options, on_disjunct,
                                &lhs_stats, &lhs_cache));

  result.stats.Merge(check_stats);
  result.stats.rewrite.Merge(lhs_stats);
  result.stats.cache.Merge(lhs_cache);
  result.stats.disjuncts_checked += result.candidates_checked;
  // The root's counters cover the enumeration and every RHS check.
  if (options.governor != nullptr) {
    result.stats.governor.Merge(options.governor->counters());
  }

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

/// Copies the containment-level cache and governor into the RHS
/// evaluation options, so one pointer of each covers every layer.
ContainmentOptions EffectiveOptions(const ContainmentOptions& options) {
  ContainmentOptions local = options;
  local.eval.cache = local.cache;
  local.eval.governor = local.governor;
  return local;
}

}  // namespace

Result<ContainmentResult> CheckContainment(const Omq& q1, const Omq& q2,
                                           const ContainmentOptions& opts) {
  ContainmentOptions options = EffectiveOptions(opts);
  OMQC_RETURN_IF_ERROR(CheckCompatible(q1, q2));
  EngineStats setup_stats;
  OMQC_ASSIGN_OR_RETURN(OmqEvaluator rhs,
                        OmqEvaluator::Prepare(q2, options.eval, &setup_stats));
  OMQC_ASSIGN_OR_RETURN(ContainmentResult result,
                        RunEngine(q1, options, rhs));
  result.stats.Merge(setup_stats);
  return result;
}

Result<ContainmentResult> CheckContainmentInUcq(
    const Omq& q1, const UnionOfCQs& ucq, const ContainmentOptions& opts) {
  ContainmentOptions options = EffectiveOptions(opts);
  OMQC_RETURN_IF_ERROR(ValidateOmq(q1));
  for (const ConjunctiveQuery& disjunct : ucq.disjuncts) {
    if (disjunct.answer_vars.size() != q1.AnswerArity()) {
      return Status::InvalidArgument("UCQ answer arity mismatch");
    }
  }
  // A plain UCQ is the empty-ontology OMQ: its disjuncts are matched
  // against each frozen candidate directly.
  const UcqOmq rhs_omq{q1.data_schema, TgdSet(), ucq};
  OMQC_ASSIGN_OR_RETURN(OmqEvaluator rhs,
                        OmqEvaluator::Prepare(rhs_omq, options.eval));
  return RunEngine(q1, options, rhs);
}

Result<ContainmentResult> CheckUcqOmqContainment(
    const UcqOmq& q1, const UcqOmq& q2, const ContainmentOptions& opts) {
  ContainmentOptions options = EffectiveOptions(opts);
  ContainmentResult merged;
  merged.outcome = ContainmentOutcome::kContained;
  // The RHS keeps its UCQ: one evaluator, prepared once, chases each
  // candidate once and matches every RHS disjunct against it.
  OMQC_ASSIGN_OR_RETURN(OmqEvaluator rhs,
                        OmqEvaluator::Prepare(q2, options.eval, &merged.stats));
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
                          RunEngine(lhs, options, rhs));
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
