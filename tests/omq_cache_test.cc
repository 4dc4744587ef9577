// Unit tests for the sharded LRU cache (src/cache/omq_cache.h): hit/miss
// bookkeeping, LRU eviction order, replacement, capacity clamping and
// concurrent hammering from many threads.

#include "cache/omq_cache.h"

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace omqc {
namespace {

CacheKey KeyFor(uint64_t n, ArtifactKind kind = ArtifactKind::kRewriting) {
  return CacheKey{Fingerprint{n, ~n}, 0, kind};
}

std::shared_ptr<const std::string> Value(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

TEST(OmqCacheTest, MissThenHit) {
  OmqCache cache;
  CacheCounters counters;
  EXPECT_EQ(cache.Get<std::string>(KeyFor(1), &counters), nullptr);
  cache.Put<std::string>(KeyFor(1), Value("one"), 3, &counters);
  auto hit = cache.Get<std::string>(KeyFor(1), &counters);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "one");
  EXPECT_EQ(counters.lookups, 2u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.insertions, 1u);
  EXPECT_EQ(counters.bytes_inserted, 3u);
}

TEST(OmqCacheTest, SameFingerprintDifferentKindOrDigestDoNotAlias) {
  OmqCache cache;
  CacheKey rewriting = KeyFor(7, ArtifactKind::kRewriting);
  CacheKey chase = KeyFor(7, ArtifactKind::kChasedInstance);
  CacheKey other_digest = rewriting;
  other_digest.options_digest = 42;
  cache.Put<std::string>(rewriting, Value("rw"), 1);
  EXPECT_EQ(cache.Get<std::string>(chase), nullptr);
  EXPECT_EQ(cache.Get<std::string>(other_digest), nullptr);
  ASSERT_NE(cache.Get<std::string>(rewriting), nullptr);
}

TEST(OmqCacheTest, EvictsLeastRecentlyUsed) {
  // One shard so the LRU order is global and deterministic.
  OmqCache cache(OmqCacheConfig{/*capacity=*/3, /*num_shards=*/1});
  cache.Put<std::string>(KeyFor(1), Value("1"), 1);
  cache.Put<std::string>(KeyFor(2), Value("2"), 1);
  cache.Put<std::string>(KeyFor(3), Value("3"), 1);
  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_NE(cache.Get<std::string>(KeyFor(1)), nullptr);
  cache.Put<std::string>(KeyFor(4), Value("4"), 1);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Get<std::string>(KeyFor(2)), nullptr);
  EXPECT_NE(cache.Get<std::string>(KeyFor(1)), nullptr);
  EXPECT_NE(cache.Get<std::string>(KeyFor(3)), nullptr);
  EXPECT_NE(cache.Get<std::string>(KeyFor(4)), nullptr);
  EXPECT_EQ(cache.Stats().counters.evictions, 1u);
}

TEST(OmqCacheTest, EvictedValueStaysAliveForHolders) {
  OmqCache cache(OmqCacheConfig{/*capacity=*/1, /*num_shards=*/1});
  cache.Put<std::string>(KeyFor(1), Value("keepalive"), 1);
  auto held = cache.Get<std::string>(KeyFor(1));
  cache.Put<std::string>(KeyFor(2), Value("evictor"), 1);
  EXPECT_EQ(cache.Get<std::string>(KeyFor(1)), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, "keepalive");
}

TEST(OmqCacheTest, ReplaceUpdatesValueAndBytes) {
  OmqCache cache(OmqCacheConfig{/*capacity=*/4, /*num_shards=*/1});
  cache.Put<std::string>(KeyFor(1), Value("old"), 10);
  cache.Put<std::string>(KeyFor(1), Value("new"), 4);
  auto hit = cache.Get<std::string>(KeyFor(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "new");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Stats().bytes, 4u);
  // Replacement does not count as a fresh insertion.
  EXPECT_EQ(cache.Stats().counters.insertions, 1u);
}

TEST(OmqCacheTest, CapacityClampsAndShardsSplit) {
  OmqCache tiny(OmqCacheConfig{/*capacity=*/0, /*num_shards=*/0});
  EXPECT_EQ(tiny.capacity(), 1u);
  EXPECT_EQ(tiny.num_shards(), 1u);
  OmqCache wide(OmqCacheConfig{/*capacity=*/4, /*num_shards=*/64});
  EXPECT_LE(wide.num_shards(), 4u);
}

TEST(OmqCacheTest, ConcurrentHammerStaysConsistent) {
  OmqCache cache(OmqCacheConfig{/*capacity=*/64, /*num_shards=*/8});
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> workers;
  std::vector<CacheCounters> per_thread(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &per_thread, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        uint64_t k = static_cast<uint64_t>((t * 31 + i) % 128);
        auto hit = cache.Get<std::string>(KeyFor(k), &per_thread[t]);
        if (hit == nullptr) {
          cache.Put<std::string>(KeyFor(k), Value(std::to_string(k)), 8,
                                 &per_thread[t]);
        } else {
          // A hit must always carry the value inserted for that key.
          EXPECT_EQ(*hit, std::to_string(k));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  CacheCounters merged;
  for (const CacheCounters& c : per_thread) merged.Merge(c);
  EXPECT_EQ(merged.lookups, static_cast<size_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(merged.hits + merged.misses, merged.lookups);
  OmqCacheStats stats = cache.Stats();
  EXPECT_LE(stats.entries, cache.capacity() + cache.num_shards());
  EXPECT_EQ(stats.counters.lookups, merged.lookups);
}

TEST(OmqCacheTest, ConcurrentEvictionUnderCapacityPressure) {
  // Capacity far below the working set: every thread's inserts continually
  // evict other threads' entries. The server shares one such cache across
  // all tenants, so eviction racing lookup/insert is the steady state, not
  // an edge case.
  OmqCache cache(OmqCacheConfig{/*capacity=*/8, /*num_shards=*/2});
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr uint64_t kKeySpace = 64;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        uint64_t k = static_cast<uint64_t>(t * 17 + i * 5) % kKeySpace;
        auto hit = cache.Get<std::string>(KeyFor(k));
        if (hit == nullptr) {
          cache.Put<std::string>(KeyFor(k), Value(std::to_string(k)), 16);
        } else {
          // Values must never cross keys, even mid-eviction.
          EXPECT_EQ(*hit, std::to_string(k));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  OmqCacheStats stats = cache.Stats();
  EXPECT_GT(stats.counters.evictions, 0u);
  EXPECT_LE(stats.entries, cache.capacity());
  // Live entries can only be what was inserted and not evicted (racing
  // same-key inserts may replace, so this is an upper bound, not equality).
  EXPECT_LE(stats.entries,
            stats.counters.insertions - stats.counters.evictions);
  // Survivors still serve the right value after the storm.
  for (uint64_t k = 0; k < kKeySpace; ++k) {
    auto hit = cache.Get<std::string>(KeyFor(k));
    if (hit != nullptr) {
      EXPECT_EQ(*hit, std::to_string(k));
    }
  }
}

}  // namespace
}  // namespace omqc
