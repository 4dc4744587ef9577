// Experiment CACHE — the compilation cache (src/cache).
//
// Three questions:
//   1. How expensive is canonicalization itself (fingerprint cost per
//      query, scaling in query size), and how does a tgd-set fingerprint
//      compare with classifying the set outright (why classifications are
//      not cached)?
//   2. Warm vs cold compilation: how much does a populated cache save on
//      the rewriting path of evaluation (CachedXRewrite + EvaluateUCQ) and
//      on repeated containment checks? (EXPERIMENTS.md records the
//      warm/cold ratio; the design target is >= 5x on rewriting-dominated
//      workloads.)
//   3. What does cache bookkeeping cost when every lookup misses
//      (fingerprint + shard lock on top of the compilation)?

#include <benchmark/benchmark.h>

#include <string>

#include "bench_util.h"
#include "cache/cached_ops.h"
#include "cache/canonical.h"
#include "cache/omq_cache.h"
#include "core/containment.h"
#include "generators/families.h"
#include "logic/homomorphism.h"
#include "tgd/classify.h"

namespace omqc {
namespace {

/// A depth-k hierarchy of binary predicates E0 < E1 < ... < Ek and a
/// length-m chain query over Ek. The chain is a core (minimization keeps
/// every atom), so the UCQ rewriting has (k+1)^m distinct disjuncts and
/// compilation — generation plus per-query minimization — dominates.
Omq HierarchyOmq(int depth, int query_atoms) {
  std::string tgds;
  Schema schema;
  for (int i = 0; i < depth; ++i) {
    tgds += "E" + std::to_string(i) + "(X,Y) -> E" + std::to_string(i + 1) +
            "(X,Y). ";
  }
  for (int i = 0; i <= depth; ++i) {
    schema.Add(Predicate::Get("E" + std::to_string(i), 2));
  }
  std::string query = "Q(X0) :- ";
  for (int j = 0; j < query_atoms; ++j) {
    if (j > 0) query += ", ";
    query += "E" + std::to_string(depth) + "(X" + std::to_string(j) + ",X" +
             std::to_string(j + 1) + ")";
  }
  return Omq{schema, ParseTgds(tgds).value(), ParseQuery(query).value()};
}

/// Facts only at the bottom of the hierarchy: every disjunct mentioning a
/// higher predicate fails on an empty relation, so UCQ *evaluation* is
/// cheap and the cold/warm gap isolates the compilation cost.
Database HierarchyDb(int facts) {
  Database db;
  for (int i = 0; i < facts; ++i) {
    db.Add(Atom::Make("E0", {Term::Constant("c" + std::to_string(i)),
                             Term::Constant("c" + std::to_string(i + 1))}));
  }
  return db;
}

/// The rewriting path of evaluation, spelled out (the hierarchy is full,
/// so EvalAll itself would chase): fetch or compute the UCQ rewriting
/// through `cache` (null = no caching), then evaluate it over `db`.
/// Returns the answer count.
Result<size_t> RewriteAndEvaluate(OmqCache* cache, const Omq& omq,
                                  const Database& db,
                                  CacheCounters* counters = nullptr) {
  OMQC_ASSIGN_OR_RETURN(
      std::shared_ptr<const UnionOfCQs> rewriting,
      CachedXRewrite(cache, omq.data_schema, omq.tgds, omq.query,
                     XRewriteOptions(), nullptr, counters));
  return EvaluateUCQ(*rewriting, db).size();
}

void BM_FingerprintCQ(benchmark::State& state) {
  int len = static_cast<int>(state.range(0));
  ConjunctiveQuery q = bench::ChainQuery("R", len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FingerprintCQ(q));
  }
  state.SetComplexityN(len);
}
BENCHMARK(BM_FingerprintCQ)->RangeMultiplier(2)->Range(2, 64)->Complexity();

void BM_FingerprintTgdSet(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  TgdSet tgds = MakeEliChainOntology(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FingerprintTgdSet(tgds));
  }
  state.SetComplexityN(k);
}
BENCHMARK(BM_FingerprintTgdSet)->RangeMultiplier(2)->Range(2, 32)->Complexity();

/// Classifying the same sets outright: what a classification-cache hit
/// would have to beat on top of BM_FingerprintTgdSet.
void BM_TgdProfile(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  TgdSet tgds = MakeEliChainOntology(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GetTgdProfile(tgds));
  }
  state.SetComplexityN(k);
}
BENCHMARK(BM_TgdProfile)->RangeMultiplier(2)->Range(2, 32)->Complexity();

/// Cold: no cache — every iteration recompiles the (k+1)^m-disjunct
/// rewriting.
void BM_EvalRewriteColdCache(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  Omq omq = HierarchyOmq(depth, 3);
  Database db = HierarchyDb(4);
  for (auto _ : state) {
    auto answers = RewriteAndEvaluate(nullptr, omq, db);
    if (!answers.ok()) {
      state.SkipWithError(answers.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*answers);
  }
  state.SetComplexityN(depth);
}
BENCHMARK(BM_EvalRewriteColdCache)
    ->RangeMultiplier(2)
    ->Range(2, 16)
    ->Complexity();

/// Warm: a shared cache, populated on the first iteration — steady state
/// fetches the rewriting by fingerprint and only evaluates the UCQ.
void BM_EvalRewriteWarmCache(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  Omq omq = HierarchyOmq(depth, 3);
  Database db = HierarchyDb(4);
  OmqCache cache;
  // Populate outside the timed region.
  if (!RewriteAndEvaluate(&cache, omq, db).ok()) {
    state.SkipWithError("warmup failed");
    return;
  }
  CacheCounters counters;
  for (auto _ : state) {
    auto answers = RewriteAndEvaluate(&cache, omq, db, &counters);
    if (!answers.ok()) {
      state.SkipWithError(answers.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*answers);
  }
  state.counters["cache_hits"] = static_cast<double>(counters.hits);
  state.SetComplexityN(depth);
}
BENCHMARK(BM_EvalRewriteWarmCache)
    ->RangeMultiplier(2)
    ->Range(2, 16)
    ->Complexity();

/// Containment Q ⊆ Q over the hierarchy: cold re-enumerates the LHS
/// rewriting per call; warm replays it from the cache (the per-candidate
/// RHS chases run either way — caching never skips semantic work).
void BM_ContainmentColdCache(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  Omq q = HierarchyOmq(depth, 2);
  ContainmentOptions options;
  for (auto _ : state) {
    auto result = CheckContainment(q, q, options);
    if (!result.ok() ||
        result->outcome != ContainmentOutcome::kContained) {
      state.SkipWithError("containment failed");
      return;
    }
    benchmark::DoNotOptimize(result->candidates_checked);
  }
  state.SetComplexityN(depth);
}
BENCHMARK(BM_ContainmentColdCache)
    ->RangeMultiplier(2)
    ->Range(2, 16)
    ->Complexity();

void BM_ContainmentWarmCache(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  Omq q = HierarchyOmq(depth, 2);
  OmqCache cache;
  ContainmentOptions options;
  options.cache = &cache;
  if (!CheckContainment(q, q, options).ok()) {
    state.SkipWithError("warmup failed");
    return;
  }
  EngineStats stats;
  for (auto _ : state) {
    auto result = CheckContainment(q, q, options);
    if (!result.ok() ||
        result->outcome != ContainmentOutcome::kContained) {
      state.SkipWithError("containment failed");
      return;
    }
    stats = result->stats;
    benchmark::DoNotOptimize(result->candidates_checked);
  }
  state.counters["cache_hits"] = static_cast<double>(stats.cache.hits);
  state.SetComplexityN(depth);
}
BENCHMARK(BM_ContainmentWarmCache)
    ->RangeMultiplier(2)
    ->Range(2, 16)
    ->Complexity();

/// Governor overhead on the containment engine: the identical Q ⊆ Q check
/// run bare (arg 0) and under an attached-but-never-tripping request
/// governor (arg 1) — LHS enumeration, freezing and every RHS check then
/// pay the child-governor Check()/ChargeBytes sites for real.
/// EXPERIMENTS.md records the ratio; the design target is < 2% overhead.
void BM_ContainmentGovernorOverhead(benchmark::State& state) {
  bool governed = state.range(0) != 0;
  Omq q = HierarchyOmq(8, 2);
  for (auto _ : state) {
    ResourceGovernor governor;
    ContainmentOptions options;
    if (governed) {
      governor.set_deadline_after(std::chrono::hours(1));
      governor.set_memory_budget(size_t{1} << 40);
      options.governor = &governor;
    }
    auto result = CheckContainment(q, q, options);
    if (!result.ok() ||
        result->outcome != ContainmentOutcome::kContained) {
      state.SkipWithError("containment failed");
      return;
    }
    benchmark::DoNotOptimize(result->candidates_checked);
  }
  state.SetLabel(governed ? "governed" : "bare");
}
BENCHMARK(BM_ContainmentGovernorOverhead)->Arg(0)->Arg(1);

/// All-miss overhead: distinct queries so every lookup misses and inserts
/// — measures fingerprint + shard-lock + insertion on top of compilation.
void BM_CacheAllMissOverhead(benchmark::State& state) {
  OmqCache cache;
  OmqCache* use_cache = state.range(0) != 0 ? &cache : nullptr;
  Database db = HierarchyDb(4);
  Omq base = HierarchyOmq(2, 2);
  int i = 0;
  for (auto _ : state) {
    // A fresh constant per iteration keeps every fingerprint distinct.
    Omq omq = base;
    omq.query.body.push_back(
        Atom::Make("E0", {Term::Variable("X0"),
                          Term::Constant("m" + std::to_string(i++))}));
    auto answers = RewriteAndEvaluate(use_cache, omq, db);
    if (!answers.ok()) {
      state.SkipWithError(answers.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*answers);
  }
}
BENCHMARK(BM_CacheAllMissOverhead)->Arg(0)->Arg(1);

}  // namespace
}  // namespace omqc

BENCHMARK_MAIN();
