// OmqCache: a fixed-capacity, sharded, thread-safe LRU cache for compiled
// OMQ artifacts — UCQ rewritings (XRewrite output), ontology
// classifications (src/tgd/classify), prepared RHS evaluators
// (src/core/containment.cc) and chased instances (src/core/eval.cc).
// Entries are keyed by the 128-bit structural fingerprint of the compiled
// object (src/cache/canonical.h) plus a digest of the options that shaped
// the compilation, so queries equal up to variable renaming share one
// entry and different budgets never alias.
//
// This is the memory-only ArtifactStore implementation — the L1 tier of
// cache/persist.h's TieredStore, and the whole store when no --cache-dir
// is configured.
//
// Concurrency: keys hash to one of `shards` independent shards, each with
// its own mutex, LRU list and counters; the server shares one OmqCache
// across all pool workers. Values are immutable
// objects handed out as shared_ptr<const T>; a value stays alive while any
// reader holds it, even after eviction.
//
// The cache never changes semantics: every consumer falls back to a fresh
// compilation on miss (or when the cache pointer is null), and cached
// artifacts are bit-compatible with what the fallback would compute for
// the same key (enforced by tests/cache_integration_test.cc).

#ifndef OMQC_CACHE_OMQ_CACHE_H_
#define OMQC_CACHE_OMQ_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/artifact_store.h"
#include "cache/canonical.h"

namespace omqc {

struct OmqCacheConfig {
  /// Total entry capacity, split evenly across shards (each shard holds at
  /// least one entry).
  size_t capacity = 1024;
  /// Number of independently locked shards.
  size_t num_shards = 8;
};

class OmqCache : public ArtifactStore {
 public:
  explicit OmqCache(OmqCacheConfig config = OmqCacheConfig());

  OmqCache(const OmqCache&) = delete;
  OmqCache& operator=(const OmqCache&) = delete;

  /// Looks up `key`, refreshing its LRU position. Returns nullptr on miss.
  /// If `counters` is non-null the lookup is tallied into it as well as
  /// into the cache-global counters.
  std::shared_ptr<const void> GetErased(const CacheKey& key,
                                        CacheCounters* counters =
                                            nullptr) override;

  /// Inserts (or replaces) `key`, evicting least-recently-used entries of
  /// the shard while it is over capacity. `bytes` is the caller's size
  /// estimate, used only for accounting. `tgd_tag` is ignored: a
  /// memory-only cache is invalidated wholesale via Clear().
  void PutErased(const CacheKey& key, std::shared_ptr<const void> value,
                 size_t bytes, CacheCounters* counters = nullptr,
                 const Fingerprint& tgd_tag = Fingerprint{}) override;

  /// Drops every entry (counters are kept).
  void Clear() override;

  /// Aggregated counters + occupancy across shards.
  OmqCacheStats Stats() const override;

  size_t size() const;
  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }

  /// Test-only: installs a fault injector whose OnCacheInsert hook may
  /// drop inserts (PutErased becomes a no-op for the designated insert —
  /// indistinguishable from an immediate eviction, which callers must
  /// already tolerate). Pass nullptr to detach.
  void set_fault_injector(FaultInjector* injector) override {
    fault_injector_.store(injector, std::memory_order_release);
  }

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<const void> value;
    size_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        index;
    CacheCounters counters;
    size_t bytes = 0;
  };

  Shard& ShardFor(const CacheKey& key) {
    return *shards_[CacheKeyHash{}(key) % shards_.size()];
  }

  size_t capacity_;
  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<FaultInjector*> fault_injector_{nullptr};
};

}  // namespace omqc

#endif  // OMQC_CACHE_OMQ_CACHE_H_
