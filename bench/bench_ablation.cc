// Ablation bench — the design choices DESIGN.md calls out:
//
//   * subsumption pruning (König–Leclère–Mugnier prunability) on the
//     containment enumeration: turns divergence into saturation on
//     guarded ontologies, its overhead on already-terminating cases, and
//     its cost on a guarded soak scenario neither setting can certify;
//   * per-CQ minimization (query elimination, [40]): required for sticky
//     termination; overhead on linear workloads.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/frontend.h"
#include "soak/scenario.h"

namespace omqc {
namespace {

using bench::MakeSchema;

/// Pruning ON vs OFF on a linear containment that terminates either way.
void BM_PruningOffLinear(benchmark::State& state) {
  Schema schema = MakeSchema({{"Edge", 2}, {"Marked", 1}});
  TgdSet tgds = ParseTgds("Edge(X,Y) -> Conn(X,Y).").value();
  Omq q1{schema, tgds, bench::ChainQuery("Edge", 4)};
  Omq q2{schema, tgds, bench::ChainQuery("Conn", 4)};
  ContainmentOptions options;
  options.rewrite.prune_subsumed = false;
  for (auto _ : state) {
    auto result = CheckContainment(q1, q2, options);
    if (!result.ok() ||
        result->outcome != ContainmentOutcome::kContained) {
      state.SkipWithError("expected containment");
      return;
    }
  }
}
BENCHMARK(BM_PruningOffLinear);

void BM_PruningOnLinear(benchmark::State& state) {
  Schema schema = MakeSchema({{"Edge", 2}, {"Marked", 1}});
  TgdSet tgds = ParseTgds("Edge(X,Y) -> Conn(X,Y).").value();
  Omq q1{schema, tgds, bench::ChainQuery("Edge", 4)};
  Omq q2{schema, tgds, bench::ChainQuery("Conn", 4)};
  ContainmentOptions options;  // pruning on by default
  for (auto _ : state) {
    auto result = CheckContainment(q1, q2, options);
    if (!result.ok() ||
        result->outcome != ContainmentOutcome::kContained) {
      state.SkipWithError("expected containment");
      return;
    }
  }
}
BENCHMARK(BM_PruningOnLinear);

/// Pruning is what makes the guarded case saturate at all: without it the
/// enumeration burns the whole budget and returns kUnknown.
void BM_PruningOffGuardedBudget(benchmark::State& state) {
  Schema schema = MakeSchema({{"A", 1}, {"R", 2}});
  TgdSet tgds = ParseTgds("R(X,Y), A(X) -> A(Y).").value();
  Omq q{schema, tgds, ParseQuery("Q() :- A(X)").value()};
  ContainmentOptions options;
  options.rewrite.prune_subsumed = false;
  options.rewrite.max_queries = 40;
  size_t candidates = 0;
  for (auto _ : state) {
    auto result = CheckContainment(q, q, options);
    if (!result.ok() ||
        result->outcome != ContainmentOutcome::kUnknown) {
      state.SkipWithError("expected budget exhaustion without pruning");
      return;
    }
    candidates = result->candidates_checked;
  }
  state.counters["outcome_unknown"] = 1;
  state.counters["candidates"] = static_cast<double>(candidates);
}
BENCHMARK(BM_PruningOffGuardedBudget);

void BM_PruningOnGuardedSaturates(benchmark::State& state) {
  Schema schema = MakeSchema({{"A", 1}, {"R", 2}});
  TgdSet tgds = ParseTgds("R(X,Y), A(X) -> A(Y).").value();
  Omq q{schema, tgds, ParseQuery("Q() :- A(X)").value()};
  size_t candidates = 0;
  for (auto _ : state) {
    auto result = CheckContainment(q, q);
    if (!result.ok() ||
        result->outcome != ContainmentOutcome::kContained) {
      state.SkipWithError("expected saturation with pruning");
      return;
    }
    candidates = result->candidates_checked;
  }
  state.counters["outcome_contained"] = 1;
  state.counters["candidates"] = static_cast<double>(candidates);
}
BENCHMARK(BM_PruningOnGuardedSaturates);

/// Guarded soak scenario 8 of seed 11 at the soak's budgets (120 queries,
/// 20000 steps; soak/differential.cc), uncached: a contained walk-tile
/// request that neither setting certifies within the budget, so the whole
/// admission scan is paid. `expected_candidates` pins the run's shape.
void RunGuardedSoakScenario(benchmark::State& state, bool prune,
                            size_t expected_candidates) {
  Scenario scenario = MakeScenario(SpecForIndex(11, 8));
  Schema schema = InferProgramDataSchema(scenario.program);
  Omq q1 = SingleQueryNamed(scenario.program, schema, kLhsQuery).value();
  Omq q2 = SingleQueryNamed(scenario.program, schema, kRhsQuery).value();
  ContainmentOptions options;
  options.rewrite.max_queries = 120;
  options.rewrite.max_steps = 20000;
  options.rewrite.prune_subsumed = prune;
  EngineStats stats;
  size_t candidates = 0;
  for (auto _ : state) {
    auto result = CheckContainment(q1, q2, options);
    if (!result.ok()) {
      state.SkipWithError("containment failed");
      return;
    }
    benchmark::DoNotOptimize(result->outcome);
    candidates = result->candidates_checked;
    if (result->outcome != ContainmentOutcome::kUnknown ||
        candidates != expected_candidates) {
      state.counters["candidates"] = static_cast<double>(candidates);
      state.SkipWithError("expected UNKNOWN after the pinned candidate count");
      return;
    }
    stats = result->stats;
  }
  state.counters["candidates"] = static_cast<double>(candidates);
  bench::ReportEngineStats(state, stats);
}

void BM_PruningOnGuardedSoakScenario(benchmark::State& state) {
  RunGuardedSoakScenario(state, /*prune=*/true, /*expected_candidates=*/54);
}
BENCHMARK(BM_PruningOnGuardedSoakScenario)->Unit(benchmark::kMillisecond);

void BM_PruningOffGuardedSoakScenario(benchmark::State& state) {
  RunGuardedSoakScenario(state, /*prune=*/false, /*expected_candidates=*/53);
}
BENCHMARK(BM_PruningOffGuardedSoakScenario)->Unit(benchmark::kMillisecond);

/// Query elimination OFF vs ON where both terminate (linear workload).
void BM_MinimizationOffLinearRewrite(benchmark::State& state) {
  Schema schema = MakeSchema({{"R", 2}, {"P", 1}});
  TgdSet tgds = ParseTgds("P(X) -> R(X,Y). R(X,Y) -> P(X).").value();
  ConjunctiveQuery q = bench::ChainQuery("R", 5);
  XRewriteOptions options;
  options.minimize_disjuncts = false;
  for (auto _ : state) {
    auto rewriting = XRewrite(schema, tgds, q, options);
    if (!rewriting.ok()) {
      state.SkipWithError("rewriting failed");
      return;
    }
    benchmark::DoNotOptimize(rewriting->size());
  }
}
BENCHMARK(BM_MinimizationOffLinearRewrite);

void BM_MinimizationOnLinearRewrite(benchmark::State& state) {
  Schema schema = MakeSchema({{"R", 2}, {"P", 1}});
  TgdSet tgds = ParseTgds("P(X) -> R(X,Y). R(X,Y) -> P(X).").value();
  ConjunctiveQuery q = bench::ChainQuery("R", 5);
  for (auto _ : state) {
    auto rewriting = XRewrite(schema, tgds, q);
    if (!rewriting.ok()) {
      state.SkipWithError("rewriting failed");
      return;
    }
    benchmark::DoNotOptimize(rewriting->size());
  }
}
BENCHMARK(BM_MinimizationOnLinearRewrite);

/// Minimization is load-bearing for sticky sets: without it the sticky
/// resolution closure accumulates redundant atoms past any budget.
void BM_MinimizationOffStickyBudget(benchmark::State& state) {
  Schema schema = MakeSchema({{"R", 2}, {"P", 2}});
  TgdSet tgds = ParseTgds(
                    "R(X,Y), P(X,Z) -> T(X,Y,Z)."
                    "T(X,Y,Z) -> R(Y,X).")
                    .value();
  ConjunctiveQuery q = ParseQuery("Q() :- T(X,Y,Z), R(Y,X)").value();
  XRewriteOptions options;
  options.minimize_disjuncts = false;
  options.max_queries = 60;
  // Without elimination the per-predicate groups also grow without bound;
  // cap them so the failure mode is a clean ResourceExhausted.
  options.max_group_size = 8;
  for (auto _ : state) {
    auto rewriting = XRewrite(schema, tgds, q, options);
    if (rewriting.ok()) {
      state.SkipWithError("expected budget exhaustion without elimination");
      return;
    }
  }
  state.counters["budget_exhausted"] = 1;
}
BENCHMARK(BM_MinimizationOffStickyBudget);

void BM_MinimizationOnStickyTerminates(benchmark::State& state) {
  Schema schema = MakeSchema({{"R", 2}, {"P", 2}});
  TgdSet tgds = ParseTgds(
                    "R(X,Y), P(X,Z) -> T(X,Y,Z)."
                    "T(X,Y,Z) -> R(Y,X).")
                    .value();
  ConjunctiveQuery q = ParseQuery("Q() :- T(X,Y,Z), R(Y,X)").value();
  size_t disjuncts = 0;
  for (auto _ : state) {
    auto rewriting = XRewrite(schema, tgds, q);
    if (!rewriting.ok()) {
      state.SkipWithError("rewriting failed");
      return;
    }
    disjuncts = rewriting->size();
  }
  state.counters["disjuncts"] = static_cast<double>(disjuncts);
}
BENCHMARK(BM_MinimizationOnStickyTerminates);

}  // namespace
}  // namespace omqc

BENCHMARK_MAIN();
