// decide_ucq / decide_guarded: one caller, closed loop, one request at a
// time. A request is what `omqc_cli contain` does: parse the DLGP text,
// infer the data schema, pick Q1/Q2, run CheckContainment against a fresh
// in-memory store, format the verdict report.
//
// The traced run replays each request as its public-layer calls (parse →
// classify → fingerprint → EnumerateRewritings, whose callback does
// Freeze → EvalTuple against Q2 → format), with a span around each, and
// checks that the replay's verdict equals CheckContainment's.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "base/string_util.h"
#include "cache/canonical.h"
#include "cache/omq_cache.h"
#include "core/frontend.h"
#include "tgd/classify.h"
#include "trace.h"
#include "workloads.h"

namespace e2e {

using omqc::ContainmentOutcome;
using omqc::ContainmentResult;
using omqc::StrCat;

namespace {

/// A parsed request: both OMQs over their inferred data schemas.
struct ParsedRequest {
  omqc::Program lhs;
  omqc::Program rhs;  ///< empty unless the request carries a second program
  omqc::Omq q1;
  omqc::Omq q2;
};

omqc::Status Parse(const DecideRequest& r, ParsedRequest* out) {
  OMQC_ASSIGN_OR_RETURN(out->lhs, omqc::ParseProgram(r.lhs_text));
  if (!r.rhs_text.empty()) {
    OMQC_ASSIGN_OR_RETURN(out->rhs, omqc::ParseProgram(r.rhs_text));
  }
  return omqc::Status::OK();
}

omqc::Status Frontend(const DecideRequest& r, ParsedRequest* out) {
  const omqc::Program& rhs = r.rhs_text.empty() ? out->lhs : out->rhs;
  omqc::Schema lhs_schema = omqc::InferProgramDataSchema(out->lhs);
  omqc::Schema rhs_schema =
      r.rhs_text.empty() ? lhs_schema : omqc::InferProgramDataSchema(rhs);
  OMQC_ASSIGN_OR_RETURN(
      out->q1, omqc::SingleQueryNamed(out->lhs, lhs_schema, omqc::kLhsQuery));
  OMQC_ASSIGN_OR_RETURN(
      out->q2, omqc::SingleQueryNamed(rhs, rhs_schema, omqc::kRhsQuery));
  return omqc::Status::OK();
}

/// The untraced request path; the formatted report goes to `report`.
omqc::Result<ContainmentResult> Decide(const DecideRequest& r,
                                       const omqc::ContainmentOptions& base,
                                       std::string* report) {
  ParsedRequest parsed;
  OMQC_RETURN_IF_ERROR(Parse(r, &parsed));
  OMQC_RETURN_IF_ERROR(Frontend(r, &parsed));
  omqc::OmqCache store(omqc::OmqCacheConfig{1024, 8});
  omqc::ContainmentOptions options = base;
  options.cache = &store;
  OMQC_ASSIGN_OR_RETURN(ContainmentResult result,
                        omqc::CheckContainment(parsed.q1, parsed.q2, options));
  *report = omqc::FormatContainmentReport(omqc::kLhsQuery, omqc::kRhsQuery,
                                          result);
  return result;
}

/// Work counters of the traced replay, summed over requests.
struct ReplayCounts {
  omqc::XRewriteStats rewrite;  ///< the LHS enumeration
  omqc::EngineStats rhs;        ///< every EvalTuple on a frozen candidate
  uint64_t enumerations = 0;  ///< not stopped early by a refutation
  uint64_t saturated = 0;
  uint64_t sink = 0;  ///< keeps classify/fingerprint results observable
};

/// The traced replay of one request. Mirrors CheckContainment's verdict
/// rule: a refuting candidate gives NOT_CONTAINED, a saturated enumeration
/// whose every check held gives CONTAINED, anything else UNKNOWN.
omqc::Result<ContainmentOutcome> Replay(const DecideRequest& r,
                                        const omqc::ContainmentOptions& base,
                                        Tracer* tracer, ReplayCounts* counts) {
  ScopedSpan request(tracer, "request");
  ParsedRequest parsed;
  {
    ScopedSpan span(tracer, "tgd.parse");
    OMQC_RETURN_IF_ERROR(Parse(r, &parsed));
  }
  {
    ScopedSpan span(tracer, "core.frontend");
    OMQC_RETURN_IF_ERROR(Frontend(r, &parsed));
  }
  const omqc::Omq& q1 = parsed.q1;
  const omqc::Omq& q2 = parsed.q2;
  {
    ScopedSpan span(tracer, "tgd.classify");
    counts->sink += static_cast<uint64_t>(omqc::PrimaryClass(q1.tgds));
    if (!r.rhs_text.empty()) {
      counts->sink += static_cast<uint64_t>(omqc::PrimaryClass(q2.tgds));
    }
  }
  {
    ScopedSpan span(tracer, "cache.fingerprint");
    counts->sink +=
        omqc::FingerprintOmqParts(q1.data_schema, q1.tgds, q1.query).lo;
    counts->sink +=
        omqc::FingerprintOmqParts(q2.data_schema, q2.tgds, q2.query).lo;
  }

  omqc::OmqCache store(omqc::OmqCacheConfig{1024, 8});
  omqc::EvalOptions eval = base.eval;
  eval.cache = &store;
  ContainmentResult result;
  bool refuted = false;
  bool inconclusive = false;
  auto on_disjunct = [&](const omqc::ConjunctiveQuery& p) {
    ++result.candidates_checked;
    result.max_witness_size = std::max(result.max_witness_size, p.size());
    omqc::FrozenQuery frozen;
    {
      ScopedSpan span(tracer, "logic.freeze");
      frozen = omqc::Freeze(p);
    }
    omqc::Result<bool> in = false;
    omqc::EngineStats check;
    {
      ScopedSpan span(tracer, "core.rhs_check");
      in = omqc::EvalTuple(q2, frozen.database, frozen.answer_tuple, eval,
                           &check);
    }
    counts->rhs.Merge(check);
    if (!in.ok()) {
      inconclusive = true;
      if (result.detail.empty()) result.detail = in.status().ToString();
      return true;
    }
    if (*in) return true;
    refuted = true;
    result.witness = omqc::ContainmentWitness{std::move(frozen.database),
                                              std::move(frozen.answer_tuple)};
    return false;
  };
  omqc::RewriteEnumeration enumeration;
  omqc::XRewriteStats rewrite;  // per run: the enumerator assigns some fields
  {
    ScopedSpan span(tracer, "rewrite.enumerate");
    OMQC_ASSIGN_OR_RETURN(
        enumeration,
        omqc::EnumerateRewritings(q1.data_schema, q1.tgds, q1.query,
                                  base.rewrite, on_disjunct, &rewrite));
  }
  counts->rewrite.Merge(rewrite);
  // An enumeration a refutation stopped early says nothing about whether
  // the budget would have sufficed.
  if (enumeration != omqc::RewriteEnumeration::kStopped) ++counts->enumerations;
  if (enumeration == omqc::RewriteEnumeration::kSaturated) ++counts->saturated;
  if (refuted) {
    result.outcome = ContainmentOutcome::kNotContained;
    result.detail.clear();
  } else if (enumeration == omqc::RewriteEnumeration::kSaturated &&
             !inconclusive) {
    result.outcome = ContainmentOutcome::kContained;
  } else {
    result.outcome = ContainmentOutcome::kUnknown;
  }
  {
    ScopedSpan span(tracer, "core.format");
    counts->sink += omqc::FormatContainmentReport(omqc::kLhsQuery,
                                                  omqc::kRhsQuery, result)
                        .size();
  }
  return result.outcome;
}

bool VerdictLineMatches(const std::string& report,
                        const ContainmentResult& result) {
  std::string expected = StrCat(omqc::kLhsQuery, " ⊆ ", omqc::kRhsQuery, ": ",
                                ContainmentOutcomeToString(result.outcome),
                                "\n");
  return report.rfind(expected, 0) == 0;
}

/// Both variant constructors must give CONTAINED on linear-class bases,
/// where the engine's verdict is exact.
void ValidateVariants(uint64_t seed) {
  omqc::SplitMix64 rng = omqc::SplitMix64(seed ^ 0x7a11da7eULL);
  omqc::ContainmentOptions options;
  int built = 0;
  for (int i = 0; built < 8 && i < 1000; ++i) {
    omqc::ScenarioSpec spec;
    spec.seed = rng.Next();
    spec.tgd_class = omqc::TgdClass::kLinear;
    spec.length = static_cast<int>(rng.Between(2, 6));
    spec.width = static_cast<int>(rng.Between(1, 3));
    spec.decoy_tiles = static_cast<int>(rng.Below(3));
    spec.contained = true;
    omqc::Scenario base = omqc::MakeScenario(spec);
    DecideRequest variant;
    if (i % 2 == 0) {
      variant = MakeRhsExtension(base, rng);
    } else if (!MakeLhsCut(base, &variant)) {
      continue;
    }
    std::string report;
    auto result = Decide(variant, options, &report);
    if (!result.ok() || result->outcome != ContainmentOutcome::kContained) {
      Fail(StrCat("variant ", RequestKindName(variant.kind),
                  " of a linear scenario is not CONTAINED: ",
                  result.ok() ? report : result.status().ToString()));
    }
    ++built;
  }
  if (built < 8) Fail("could not build the linear variant validation set");
}

/// Tracing overhead of the replay: each of the run's first `requests`
/// requests replayed twice more, with and without a tracer, back to back
/// (alternating which goes first, so neither side always runs on warm
/// caches). Returns traced ÷ untraced − 1.
double TracingOverhead(const RunConfig& config,
                       const omqc::ContainmentOptions& options,
                       uint64_t requests) {
  std::vector<DecideRequest> replayed;
  for (uint64_t b = 0; replayed.size() < requests; ++b) {
    for (DecideRequest& r : DecideBlock(config.workload, config.seed, b)) {
      if (replayed.size() < requests) replayed.push_back(std::move(r));
    }
  }
  Tracer tracer;
  ReplayCounts unused;
  double seconds[2] = {0, 0};  // [untraced, traced]
  for (size_t i = 0; i < replayed.size(); ++i) {
    for (size_t pass = 0; pass < 2; ++pass) {
      const size_t traced = (i + pass) % 2;
      const Clock::time_point t0 = Clock::now();
      (void)Replay(replayed[i], options, traced ? &tracer : nullptr, &unused);
      seconds[traced] += SecondsBetween(t0, Clock::now());
    }
  }
  return seconds[0] > 0 ? seconds[1] / seconds[0] - 1 : 0;
}

}  // namespace

RunOutput RunDecide(const RunConfig& config) {
  const omqc::ContainmentOptions options = DecideOptions(config.workload);
  ValidateVariants(config.seed);

  // Set-up: a fresh store answering a fixed warm-up request, timed back to
  // back on every CPU (median) before the timed section, after 16 untimed
  // answers. Without those, the first answers after process start read up
  // to 2x slower from run to run; timed after the timed section, samples
  // moved with how far the process had grown.
  const DecideRequest warmup = WarmupRequest();
  auto set_up = [&] {
    std::string report;
    auto result = Decide(warmup, options, &report);
    if (!result.ok() || result->outcome != ContainmentOutcome::kContained) {
      Fail("the warm-up request did not come back CONTAINED");
    }
  };
  for (int i = 0; i < 16; ++i) set_up();
  const std::vector<double> setup = TimeOnEachCpu(16, set_up);

  Tracer tracer;
  Tracer* trace = config.trace ? &tracer : nullptr;
  ReplayCounts replay;
  omqc::EngineStats reference;  // CheckContainment's stats, summed
  uint64_t candidates = 0;
  uint64_t governor_checks = 0;  // EngineStats::Merge keeps the max

  std::vector<double> latency_ms;
  uint64_t attempted = 0, errors = 0, wrong = 0, mismatches = 0;
  uint64_t unknown = 0;
  uint64_t per_polarity[2] = {0, 0};  // [contained, not contained]
  uint64_t unknown_by_polarity[2] = {0, 0};
  uint64_t by_kind_unknown[3] = {0, 0, 0};
  uint64_t by_kind[3] = {0, 0, 0};
  double ms_by_kind[3] = {0, 0, 0};
  double timed_s = 0, cpu_s = 0;
  double peak_rss = 0;

  auto done = [&](double block_elapsed) {
    if (config.fixed_requests > 0) return attempted >= config.fixed_requests;
    return timed_s + block_elapsed >= config.seconds;
  };
  // The single caller moves to the next CPU every block (CpuRotation).
  auto rotation = std::make_unique<CpuRotation>();
  bool stop = false;
  for (uint64_t b = 0; !stop; ++b) {
    std::vector<DecideRequest> block = DecideBlock(config.workload,
                                                   config.seed, b);
    rotation->Next();
    const double cpu0 = CpuSeconds();
    const Clock::time_point block_start = Clock::now();
    for (const DecideRequest& r : block) {
      if (done(SecondsBetween(block_start, Clock::now()))) {
        stop = true;
        break;
      }
      ++attempted;
      tracer.set_request(static_cast<uint32_t>(attempted));
      std::string report;
      omqc::Result<ContainmentResult> result = omqc::Status::OK();
      Clock::time_point t0 = Clock::now();
      if (trace == nullptr) {
        result = Decide(r, options, &report);
      } else {
        ScopedSpan span(trace, "core.check_containment");
        result = Decide(r, options, &report);
      }
      latency_ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
      if (attempted == MemoryProbeAt(config.workload)) peak_rss = PeakRssMb();
      if (!result.ok()) {
        ++errors;
        std::fprintf(stderr, "request %llu failed: %s\n",
                     static_cast<unsigned long long>(attempted),
                     result.status().ToString().c_str());
        continue;
      }
      const int polarity = r.expected == ContainmentOutcome::kContained ? 0 : 1;
      const int kind = static_cast<int>(r.kind);
      ++per_polarity[polarity];
      ++by_kind[kind];
      ms_by_kind[kind] += latency_ms.back();
      candidates += result->candidates_checked;
      reference.Merge(result->stats);
      governor_checks += result->stats.governor.checks;
      if (!VerdictLineMatches(report, *result)) ++wrong;
      if (result->outcome == ContainmentOutcome::kUnknown) {
        ++unknown;
        ++unknown_by_polarity[polarity];
        ++by_kind_unknown[kind];
      } else if (result->outcome != r.expected) {
        ++wrong;
        std::fprintf(stderr, "wrong verdict %s (expected %s) on:\n%s\n",
                     ContainmentOutcomeToString(result->outcome),
                     ContainmentOutcomeToString(r.expected),
                     r.lhs_text.c_str());
      }
      if (trace != nullptr) {
        auto replayed = Replay(r, options, trace, &replay);
        if (!replayed.ok() || *replayed != result->outcome) ++mismatches;
      }
    }
    timed_s += SecondsBetween(block_start, Clock::now());
    cpu_s += CpuSeconds() - cpu0;
  }
  rotation.reset();  // back to every CPU

  RunOutput out;
  out.attempted = attempted;
  out.failed = errors;
  out.correct = wrong == 0 && mismatches == 0 && attempted > 0;
  const double n = static_cast<double>(std::max<uint64_t>(attempted, 1));
  const LatencySummary latency = Summarize(latency_ms);
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  double tracing_overhead = 0;

  if (!config.trace) {
    AddEndToEnd(out.metrics, ratio(static_cast<double>(attempted), timed_s),
                latency, ratio(static_cast<double>(unknown), n),
                ratio(static_cast<double>(errors), n), cpu_s * 1e3 / n,
                peak_rss > 0 ? peak_rss : PeakRssMb(), Median(setup));
  } else {
    AddPerLayerDefaults(out.metrics);
    auto set = [&](const char* name, double value) {
      out.metrics[name].value = value;
    };
    auto totals = tracer.TotalsByName();
    auto self_us = [&](const char* name) { return totals[name].self_us; };
    set("tgd.parse_us", self_us("tgd.parse") / n);
    set("tgd.classify_us", self_us("tgd.classify") / n);
    set("cache.fingerprint_us", self_us("cache.fingerprint") / n);
    set("core.format_us", self_us("core.format") / n);
    set("rewrite.enumerate_ms", self_us("rewrite.enumerate") / n / 1e3);
    set("core.rhs_check_ms", totals["core.rhs_check"].total_us / n / 1e3);
    set("logic.freeze_us",
        ratio(totals["logic.freeze"].total_us,
              static_cast<double>(totals["logic.freeze"].calls)));
    set("trace.request_ms", totals["request"].total_us / n / 1e3);
    set("trace.check_containment_ms",
        totals["core.check_containment"].total_us / n / 1e3);
    const omqc::XRewriteStats& xr = replay.rewrite;
    const double queries = static_cast<double>(xr.queries_generated);
    set("rewrite.queries_generated", queries / n);
    set("rewrite.steps",
        static_cast<double>(xr.rewriting_steps + xr.factorization_steps) / n);
    set("rewrite.dedup_hits", static_cast<double>(xr.dedup_hits) / n);
    set("rewrite.subsumption_prunes",
        static_cast<double>(xr.subsumption_prunes) / n);
    set("rewrite.prunes_per_query",
        ratio(static_cast<double>(xr.subsumption_prunes), queries));
    set("rewrite.saturated_ratio",
        ratio(static_cast<double>(replay.saturated),
              static_cast<double>(replay.enumerations)));
    const omqc::EngineStats& rhs = replay.rhs;
    set("logic.hom_searches", static_cast<double>(rhs.hom.searches) / n);
    set("logic.hom_steps", static_cast<double>(rhs.hom.steps) / n);
    set("logic.hom_candidates_scanned",
        static_cast<double>(rhs.hom.candidates_scanned) / n);
    set("chase.steps", static_cast<double>(rhs.chase_steps) / n);
    set("chase.atoms_derived",
        static_cast<double>(rhs.chase_atoms_derived) / n);
    set("chase.redundant_trigger_ratio",
        ratio(static_cast<double>(rhs.chase_redundant_triggers_skipped),
              static_cast<double>(rhs.chase_triggers_enumerated)));
    set("cache.inserts_per_request",
        static_cast<double>(reference.cache.insertions) / n);
    set("cache.hit_ratio", ratio(static_cast<double>(reference.cache.hits),
                                 static_cast<double>(reference.cache.lookups)));
    set("cache.misses_per_program",
        static_cast<double>(reference.cache.misses) / n);
    set("core.candidates_per_request", static_cast<double>(candidates) / n);
    set("core.budget_exhaustions",
        static_cast<double>(reference.budget_exhaustions) / n);
    set("core.unknown.contained",
        ratio(static_cast<double>(unknown_by_polarity[0]),
              static_cast<double>(per_polarity[0])));
    set("core.unknown.not_contained",
        ratio(static_cast<double>(unknown_by_polarity[1]),
              static_cast<double>(per_polarity[1])));
    set("base.governor_checks_per_request",
        static_cast<double>(governor_checks) / n);
    if (!config.trace_path.empty() &&
        !tracer.AppendJsonLines(config.trace_path, 0)) {
      Fail("cannot write spans to " + config.trace_path);
    }
    tracing_overhead =
        TracingOverhead(config, options, std::min<uint64_t>(attempted, 12));
  }

  out.detail_json = StrCat(
      "{\"requests\": ", attempted, ", \"errors\": ", errors,
      ", \"wrong_verdicts\": ", wrong, ", \"replay_mismatches\": ", mismatches,
      ", \"unknown\": ", unknown,
      ", \"contained_requests\": ", per_polarity[0],
      ", \"not_contained_requests\": ", per_polarity[1],
      ", \"unknown_contained\": ", unknown_by_polarity[0],
      ", \"unknown_not_contained\": ", unknown_by_polarity[1],
      ", \"unknown_of_kind\": {\"factory\": [", by_kind_unknown[0], ", ",
      by_kind[0], "], \"rhs_extension\": [", by_kind_unknown[1], ", ",
      by_kind[1], "], \"lhs_cut\": [", by_kind_unknown[2], ", ", by_kind[2],
      "]}, \"ms_of_kind\": [", ms_by_kind[0], ", ", ms_by_kind[1], ", ",
      ms_by_kind[2], "], \"candidates\": ", candidates,
      ", \"rewrite_queries\": ", reference.rewrite.queries_generated,
      ", \"rewrite_prunes\": ", reference.rewrite.subsumption_prunes,
      ", \"cache_misses\": ", reference.cache.misses,
      ", \"tail_percentile\": ", latency.tail_percentile,
      ", \"tail_beyond\": ", latency.beyond_tail,
      ", \"latency_samples\": ", latency.samples,
      ", \"timed_s\": ", timed_s, ", \"tracing_overhead\": ", tracing_overhead,
      ", \"peak_rss_mb_at_end\": ", PeakRssMb(),
      ", \"setup_s\": [", JoinNumbers(setup), "]}");
  return out;
}

}  // namespace e2e
