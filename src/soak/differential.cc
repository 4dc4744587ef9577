#include "soak/differential.h"

#include <chrono>
#include <utility>

#include "base/fault_injection.h"
#include "base/rng.h"
#include "base/string_util.h"
#include "core/eval.h"
#include "core/frontend.h"

namespace omqc {
namespace {

bool Definite(ContainmentOutcome outcome) {
  return outcome != ContainmentOutcome::kUnknown;
}

ContainmentOutcome Flipped(ContainmentOutcome outcome) {
  switch (outcome) {
    case ContainmentOutcome::kContained:
      return ContainmentOutcome::kNotContained;
    case ContainmentOutcome::kNotContained:
      return ContainmentOutcome::kContained;
    default:
      return outcome;
  }
}

/// Parses the first line of a contain response body
/// ("Q1 ⊆ Q2: CONTAINED") back into an outcome.
Result<ContainmentOutcome> ParseVerdictLine(const std::string& body) {
  size_t eol = body.find('\n');
  std::string line =
      eol == std::string::npos ? body : body.substr(0, eol);
  size_t pos = line.rfind(": ");
  if (pos == std::string::npos) {
    return Status::Internal(StrCat("unparsable verdict line: ", line));
  }
  std::string token = line.substr(pos + 2);
  if (token == "CONTAINED") return ContainmentOutcome::kContained;
  if (token == "NOT_CONTAINED") return ContainmentOutcome::kNotContained;
  if (token == "UNKNOWN") return ContainmentOutcome::kUnknown;
  return Status::Internal(StrCat("unknown verdict token: ", token));
}

}  // namespace

Result<SoakVerdict> RunDifferential(const Program& program,
                                    const DifferentialOptions& options) {
  Schema schema = InferProgramDataSchema(program);
  OMQC_ASSIGN_OR_RETURN(Omq q1,
                        SingleQueryNamed(program, schema, kLhsQuery));
  OMQC_ASSIGN_OR_RETURN(Omq q2,
                        SingleQueryNamed(program, schema, kRhsQuery));

  SoakVerdict verdict;
  verdict.primary_class = PrimaryClass(program.tgds);

  auto contain = [&](OmqCache* cache, ResourceGovernor* governor) {
    ContainmentOptions copts;
    copts.rewrite.max_queries = options.rewrite_max_queries;
    // Secondary bound for walk-tile rewritings whose CQs keep growing:
    // cap the step count outright (subsumption pruning is already on by
    // default).
    copts.rewrite.max_steps = 20000;
    copts.cache = cache;
    copts.governor = governor;
    return CheckContainment(q1, q2, copts);
  };

  auto eval_witness = [&](OmqCache* cache, ConfigOutcome* co) {
    if (options.witness.empty()) return;
    EvalOptions eopts;
    eopts.cache = cache;
    auto answer = EvalTuple(q1, program.facts, options.witness, eopts);
    if (answer.ok()) {
      co->witness_eval = *answer ? 1 : 0;
    } else {
      co->detail = StrCat(co->detail, co->detail.empty() ? "" : "; ",
                          "witness eval: ", answer.status().message());
    }
  };

  auto finish = [&](ConfigOutcome&& co) {
    if (!options.flip_config.empty() && co.config == options.flip_config) {
      co.outcome = Flipped(co.outcome);  // planted bug (test-only)
    }
    verdict.outcomes.push_back(std::move(co));
  };

  {
    // The cached config vets the program itself; a later config failing
    // where it succeeded is recorded, not fatal.
    ConfigOutcome co;
    co.config = "cached";
    OMQC_ASSIGN_OR_RETURN(ContainmentResult result,
                          contain(options.cache, nullptr));
    co.outcome = result.outcome;
    co.detail = result.detail;
    eval_witness(options.cache, &co);
    finish(std::move(co));
  }

  if (options.with_cache_off) {
    ConfigOutcome co;
    co.config = "nocache";
    auto result = contain(nullptr, nullptr);
    if (!result.ok()) {
      co.detail = StrCat("error: ", result.status().message());
    } else {
      co.outcome = result->outcome;
      co.detail = result->detail;
    }
    eval_witness(nullptr, &co);
    finish(std::move(co));
  }

  if (options.persist_cache != nullptr) {
    // Persistent-cache config: same engine, but the compilation cache is
    // disk-backed and its entries may have round-tripped through on-disk
    // segments (the soak driver warm-reloads it between batches). A
    // decode bug shows up here as a verdict disagreement.
    ConfigOutcome co;
    co.config = "persist";
    auto result = contain(options.persist_cache, nullptr);
    if (!result.ok()) {
      co.detail = StrCat("error: ", result.status().message());
    } else {
      co.outcome = result->outcome;
      co.detail = result->detail;
    }
    eval_witness(options.persist_cache, &co);
    finish(std::move(co));
  }

  if (options.fault_seed != 0) {
    // Governed config: random deadline/memory budgets plus an injected
    // fault plan. Budgets only ever degrade a verdict to kUnknown, so a
    // tripped or starved first attempt is retried ungoverned and the
    // retry's definite verdict joins the differential comparison.
    ConfigOutcome co;
    co.config = "governed";
    SplitMix64 frng(options.fault_seed);
    ResourceGovernor governor;
    governor.set_deadline_after(
        std::chrono::milliseconds(frng.Between(2, 40)));
    governor.set_memory_budget(
        static_cast<size_t>(frng.Between(1u << 18, 4u << 20)));
    FaultPlan plan = RandomFaultPlan(frng);
    FaultInjector injector(plan);
    governor.set_fault_injector(&injector);
    if (options.cache != nullptr) {
      options.cache->set_fault_injector(&injector);
    }
    auto first = contain(options.cache, &governor);
    if (options.cache != nullptr) {
      options.cache->set_fault_injector(nullptr);
    }
    if (first.ok() && Definite(first->outcome)) {
      co.outcome = first->outcome;
      co.detail = first->detail;
    } else {
      co.governed_retry = true;
      auto retry = contain(options.cache, nullptr);
      if (!retry.ok()) {
        co.detail = StrCat("error: ", retry.status().message());
      } else {
        co.outcome = retry->outcome;
        co.detail = retry->detail;
      }
      eval_witness(options.cache, &co);
    }
    finish(std::move(co));
  }

  if (options.client != nullptr) {
    ConfigOutcome co;
    co.config = "server";
    WireRequest request;
    request.type = RequestType::kContain;
    request.tenant = options.server_tenant;
    // Bounds guarded (non-saturating) rewritings server-side; also the
    // client's total retry budget.
    request.deadline_ms = options.server_deadline_ms;
    request.program = SerializeProgram(program);
    request.query = kLhsQuery;
    request.query2 = kRhsQuery;
    auto response = options.client->Call(std::move(request));
    if (!response.ok()) {
      co.detail = StrCat("server transport: ",
                         response.status().message());
    } else if (response->code != StatusCode::kOk) {
      co.detail = StrCat("server status ",
                         StatusCodeToString(response->code), ": ",
                         response->message);
    } else {
      auto outcome = ParseVerdictLine(response->body);
      if (!outcome.ok()) {
        co.detail = outcome.status().message();
      } else {
        co.outcome = *outcome;
      }
    }
    finish(std::move(co));
  }

  // Cross-checks, cheapest evidence first. The first failure wins the
  // description; `discrepancy` latches.
  auto flag = [&](std::string description) {
    if (verdict.discrepancy) return;
    verdict.discrepancy = true;
    verdict.description = std::move(description);
  };

  if (options.expected_class.has_value() &&
      !SatisfiesClass(program.tgds, *options.expected_class)) {
    flag(StrCat("ontology fails its target class ",
                TgdClassToString(*options.expected_class), " (classified ",
                TgdClassToString(verdict.primary_class), ")"));
  }

  const ConfigOutcome* first_definite = nullptr;
  for (const ConfigOutcome& co : verdict.outcomes) {
    if (!Definite(co.outcome)) continue;
    if (first_definite == nullptr) {
      first_definite = &co;
    } else if (co.outcome != first_definite->outcome) {
      flag(StrCat("config ", first_definite->config, " says ",
                  ContainmentOutcomeToString(first_definite->outcome),
                  " but config ", co.config, " says ",
                  ContainmentOutcomeToString(co.outcome)));
    }
  }
  if (first_definite != nullptr) {
    verdict.agreed = first_definite->outcome;
    if (options.expected.has_value() &&
        first_definite->outcome != *options.expected) {
      flag(StrCat("config ", first_definite->config, " says ",
                  ContainmentOutcomeToString(first_definite->outcome),
                  " but the polarity oracle says ",
                  ContainmentOutcomeToString(*options.expected)));
    }
  }
  for (const ConfigOutcome& co : verdict.outcomes) {
    if (co.witness_eval == 0) {
      flag(StrCat("config ", co.config,
                  " rejected the certified witness tuple"));
    }
  }
  return verdict;
}

Result<SoakVerdict> RunDifferential(const Scenario& scenario,
                                    DifferentialOptions options) {
  options.expected = scenario.expected;
  options.expected_class = scenario.spec.tgd_class;
  options.witness = scenario.witness_tuple;
  return RunDifferential(scenario.program, options);
}

}  // namespace omqc
