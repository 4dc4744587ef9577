// Experiment PST — the persistent artifact store (src/cache/persist).
//
// Three questions:
//   1. Startup-to-first-verdict: how much does warm-starting from an
//      on-disk store save over a cold compile, for a rewriting-dominated
//      containment check? (EXPERIMENTS.md records the cold/warm ratio;
//      the design target is that warm tracks the in-memory warm cache —
//      decode + promote, not recompile.)
//   2. What does opening a store cost as it grows? Open only indexes raw
//      payload spans (decode is lazy), so boot must scale with segment
//      bytes, not with artifact complexity.
//   3. Server boot: daemon construction with a populated --cache-dir vs
//      memory-only — the warm-start must not tax availability.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>

#include "bench_util.h"
#include "cache/persist.h"
#include "core/containment.h"
#include "server/server.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

namespace fs = std::filesystem;

/// A fresh empty store directory (removed and recreated).
std::string FreshDir(const std::string& tag) {
  std::string dir =
      (fs::temp_directory_path() / ("omqc_bench_persist_" + tag)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Depth-k hierarchy E0 < ... < Ek with a length-2 chain query over Ek:
/// the UCQ rewriting has (k+1)^2 disjuncts, so compilation dominates the
/// Q ⊆ Q check (same workload family as bench_cache).
Omq HierarchyOmq(int depth) {
  std::string tgds;
  Schema schema;
  for (int i = 0; i < depth; ++i) {
    tgds += "E" + std::to_string(i) + "(X,Y) -> E" + std::to_string(i + 1) +
            "(X,Y). ";
  }
  for (int i = 0; i <= depth; ++i) {
    schema.Add(Predicate::Get("E" + std::to_string(i), 2));
  }
  std::string query = "Q(X0) :- E" + std::to_string(depth) + "(X0,X1), E" +
                      std::to_string(depth) + "(X1,X2)";
  return Omq{schema, ParseTgds(tgds).value(), ParseQuery(query).value()};
}

bool FirstVerdict(const Omq& q, OmqCache* cache) {
  ContainmentOptions options;
  options.cache = cache;
  auto result = CheckContainment(q, q, options);
  return result.ok() && result->outcome == ContainmentOutcome::kContained;
}

/// Seeds `dir` with the compiled artifacts for `q` and seals them.
void SeedStore(const std::string& dir, const Omq& q) {
  auto store = OmqCache::Open(OmqCacheConfig(), dir).value();
  if (!FirstVerdict(q, store.get())) std::abort();
  store->Flush();
}

/// Cold startup-to-first-verdict: open an *empty* store, compile, answer.
void BM_ColdStartToFirstVerdict(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  Omq q = HierarchyOmq(depth);
  std::string dir = FreshDir("cold");
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    fs::create_directories(dir);
    state.ResumeTiming();
    auto store = OmqCache::Open(OmqCacheConfig(), dir).value();
    if (!FirstVerdict(q, store.get())) {
      state.SkipWithError("containment failed");
      return;
    }
    benchmark::DoNotOptimize(store);
  }
  state.SetComplexityN(depth);
}
BENCHMARK(BM_ColdStartToFirstVerdict)
    ->RangeMultiplier(2)
    ->Range(2, 16)
    ->Complexity();

/// Warm startup-to-first-verdict: open a *populated* store — the verdict
/// is served by decoding on-disk artifacts, nothing is recompiled.
void BM_WarmStartToFirstVerdict(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  Omq q = HierarchyOmq(depth);
  std::string dir = FreshDir("warm" + std::to_string(depth));
  SeedStore(dir, q);
  for (auto _ : state) {
    auto store = OmqCache::Open(OmqCacheConfig(), dir).value();
    if (!FirstVerdict(q, store.get())) {
      state.SkipWithError("containment failed");
      return;
    }
    benchmark::DoNotOptimize(store);
  }
  state.SetComplexityN(depth);
}
BENCHMARK(BM_WarmStartToFirstVerdict)
    ->RangeMultiplier(2)
    ->Range(2, 16)
    ->Complexity();

/// Store open vs entry count: indexing is span-only (lazy decode), so this
/// must scale with segment bytes, not artifact complexity.
void BM_StoreOpenByEntries(benchmark::State& state) {
  int entries = static_cast<int>(state.range(0));
  std::string dir = FreshDir("open" + std::to_string(entries));
  {
    auto store = PersistentStore::Open(dir).value();
    for (int i = 0; i < entries; ++i) {
      CacheKey key{Fingerprint{static_cast<uint64_t>(i), 0xBEEF}, 0,
                   ArtifactKind::kRewriting};
      store->Append(key, kArtifactPayloadVersion,
                    std::string(256, static_cast<char>('a' + (i % 26))));
    }
    if (!store->Flush().ok()) {
      state.SkipWithError("flush failed");
      return;
    }
  }
  for (auto _ : state) {
    auto store = PersistentStore::Open(dir).value();
    if (store->stats().entries != static_cast<size_t>(entries)) {
      state.SkipWithError("store lost entries");
      return;
    }
    benchmark::DoNotOptimize(store);
  }
  state.SetComplexityN(entries);
}
BENCHMARK(BM_StoreOpenByEntries)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Complexity();

/// Daemon boot (construct + pipeline start + shutdown), memory-only cache
/// (arg 0) vs warm-starting from a populated --cache-dir (arg 1). The
/// store only indexes spans at open, so the warm boot must track the
/// empty one.
void BM_ServerBoot(benchmark::State& state) {
  bool warm = state.range(0) != 0;
  std::string dir = FreshDir("serverboot");
  if (warm) SeedStore(dir, HierarchyOmq(8));
  for (auto _ : state) {
    ServerConfig config;
    config.worker_threads = 2;
    if (warm) config.cache_dir = dir;
    OmqServer server(std::move(config));
    server.Start();
    server.Shutdown();
  }
  state.SetLabel(warm ? "warm_store" : "memory_only");
}
BENCHMARK(BM_ServerBoot)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace omqc

BENCHMARK_MAIN();
