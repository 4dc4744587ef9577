// Differential execution of one scenario across every engine
// configuration that claims identical verdicts.
//
// Configurations: containment over the shared cache (`cached`),
// cache-off, governed-with-random-budgets (deadline/memory budgets and a
// seeded FaultPlan; a trip or budget-starved kUnknown is retried
// ungoverned, and the retry must reproduce the definite verdict), a
// persistent-cache config over a disk-backed OmqCache when one is
// supplied (artifacts decoded from on-disk segments must agree with fresh
// compilations), and — when a client is supplied — a live OmqServer.
// Eval of the certified witness tuple runs on the cached and uncached
// configs. Every pair of
// definite outcomes must agree, definite outcomes must match the
// scenario's polarity oracle, the witness tuple must evaluate true, and
// the ontology must satisfy its target class. kUnknown (budget-limited,
// e.g. non-saturating guarded rewritings) is never a discrepancy.
//
// The `flip_config` hook is the planted-bug backdoor for tests and the
// smoke script: it flips the named configuration's definite containment
// verdict, which the differential check must catch and the minimizer must
// shrink.

#ifndef OMQC_SOAK_DIFFERENTIAL_H_
#define OMQC_SOAK_DIFFERENTIAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/omq_cache.h"
#include "core/containment.h"
#include "server/client.h"
#include "soak/scenario.h"

namespace omqc {

struct DifferentialOptions {
  /// Uniform rewriting budget for every local config — small enough to
  /// keep guarded (non-saturating) scenarios cheap, identical across
  /// configs so budget-induced kUnknown is symmetric. Kept low on
  /// purpose: walk-tile rewritings grow per-CQ, so admission cost is
  /// superlinear in this budget (400 is already ~a minute on the worst
  /// factory scenarios).
  size_t rewrite_max_queries = 120;
  /// Also run a cache-off config (the other local configs use `cache`).
  bool with_cache_off = true;
  /// Shared compilation cache for the `cached` and governed configs (null
  /// = all configs effectively uncached).
  OmqCache* cache = nullptr;
  /// Persistent-cache config when non-null (not owned): containment over
  /// a disk-backed OmqCache, typically warm-reloaded between scenario
  /// batches by the caller. Artifacts decoded from disk segments must
  /// yield the same verdict as freshly compiled ones.
  OmqCache* persist_cache = nullptr;
  /// Run the governed config: random deadline/memory budgets plus a
  /// RandomFaultPlan drawn from this seed stream. 0 disables it.
  uint64_t fault_seed = 0;
  /// Live-server config when non-null (not owned): the scenario is
  /// serialized and sent as a contain request under `server_tenant`.
  OmqClient* client = nullptr;
  std::string server_tenant = "soak";
  /// Wall-clock deadline carried by the server request. The wire protocol
  /// has no rewrite budget, so this is what bounds non-saturating guarded
  /// rewritings server-side; a trip is a kUnknown outcome, never a
  /// discrepancy.
  uint64_t server_deadline_ms = 2000;
  /// Oracle checks (disabled during minimization, where mutation voids
  /// the construction certificates).
  std::optional<ContainmentOutcome> expected;
  std::optional<TgdClass> expected_class;
  /// Certified Q1 answer tuple to eval-check (empty = skip eval).
  std::vector<Term> witness;
  /// Test-only planted bug: flip this config's definite verdict.
  std::string flip_config;
};

/// One configuration's observation.
struct ConfigOutcome {
  std::string config;
  ContainmentOutcome outcome = ContainmentOutcome::kUnknown;
  std::string detail;  ///< kUnknown explanation / server error
  /// Eval of the witness tuple: -1 not run or inexact, 0 rejected
  /// (discrepancy), 1 accepted.
  int witness_eval = -1;
  /// Governed config only: the budgeted first attempt tripped and the
  /// outcome above came from the ungoverned retry. Wall-clock dependent —
  /// never part of deterministic output.
  bool governed_retry = false;
};

struct SoakVerdict {
  std::vector<ConfigOutcome> outcomes;
  TgdClass primary_class = TgdClass::kGeneral;
  bool discrepancy = false;
  std::string description;  ///< first discrepancy, human-readable
  /// The scenario's agreed verdict: the common definite outcome, or
  /// kUnknown when no config was definite.
  ContainmentOutcome agreed = ContainmentOutcome::kUnknown;
};

/// Runs every configured engine over `program` (which must carry queries
/// kLhsQuery and kRhsQuery) and cross-checks. Errors are plumbing-level
/// only (missing query, malformed program); engine budget exhaustion is a
/// kUnknown outcome, not an error.
Result<SoakVerdict> RunDifferential(const Program& program,
                                    const DifferentialOptions& options);

/// Convenience: wires the scenario's oracle fields into the options.
Result<SoakVerdict> RunDifferential(const Scenario& scenario,
                                    DifferentialOptions options);

}  // namespace omqc

#endif  // OMQC_SOAK_DIFFERENTIAL_H_
