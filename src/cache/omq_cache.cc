#include "cache/omq_cache.h"

#include <algorithm>
#include <cstdio>

#include "base/binary_io.h"
#include "base/fault_injection.h"
#include "base/string_util.h"
#include "cache/persist.h"
#include "cache/serialize.h"

namespace omqc {

std::string CacheCounters::ToString() const {
  return StrCat("lookups=", lookups, " hits=", hits, " misses=", misses,
                " insertions=", insertions, " evictions=", evictions,
                " bytes_inserted=", bytes_inserted, " persist_hits=",
                persist_hits, " persist_writes=", persist_writes);
}

std::string OmqCacheStats::ToString() const {
  std::string out = StrCat("cache stats: entries=", entries, " bytes=", bytes,
                           " ", counters.ToString());
  if (persist_segments > 0 || persist_entries > 0 ||
      persist_corrupt_records > 0 || persist_version_rejects > 0) {
    out = StrCat(out, " persist_entries=", persist_entries,
                 " persist_segments=", persist_segments,
                 " persist_corrupt_records=", persist_corrupt_records,
                 " persist_version_rejects=", persist_version_rejects);
  }
  return out;
}

OmqCache::OmqCache(OmqCacheConfig config)
    : capacity_(std::max<size_t>(config.capacity, 1)) {
  size_t num_shards =
      std::min(std::max<size_t>(config.num_shards, 1), capacity_);
  per_shard_capacity_ = (capacity_ + num_shards - 1) / num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

Result<std::unique_ptr<OmqCache>> OmqCache::Open(OmqCacheConfig config,
                                                 const std::string& dir) {
  OMQC_ASSIGN_OR_RETURN(std::unique_ptr<PersistentStore> persist,
                        PersistentStore::Open(dir));
  auto cache = std::make_unique<OmqCache>(config);
  cache->persist_ = std::move(persist);
  return cache;
}

OmqCache::~OmqCache() { Flush(); }

std::shared_ptr<const void> OmqCache::GetErased(const CacheKey& key,
                                                CacheCounters* counters) {
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    ++shard.counters.lookups;
    if (counters != nullptr) ++counters->lookups;
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Refresh: move to the front of the LRU list.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++shard.counters.hits;
      if (counters != nullptr) ++counters->hits;
      return it->second->value;
    }
    ++shard.counters.misses;
    if (counters != nullptr) ++counters->misses;
  }
  if (persist_ == nullptr) return nullptr;
  std::shared_ptr<const std::string> raw = persist_->Lookup(key);
  if (raw == nullptr) return nullptr;
  ByteReader in(*raw);
  Result<DecodedArtifact> decoded = DeserializeArtifact(key.kind, in);
  if (!decoded.ok() || !in.AtEnd()) {
    // The payload passed its checksum yet does not decode — an encoder
    // bug or a version skew the record header missed. Fall back to a
    // cold compile; the recompute overwrites the bad record.
    return nullptr;
  }
  DecodedArtifact artifact = std::move(decoded).value();
  persist_hits_.fetch_add(1, std::memory_order_relaxed);
  if (counters != nullptr) ++counters->persist_hits;
  // Promote so the next lookup skips the decode. Deliberately not
  // re-appended to disk (it is already there).
  InsertInMemory(key, artifact.value, artifact.bytes, nullptr);
  return artifact.value;
}

void OmqCache::PutErased(const CacheKey& key, std::shared_ptr<const void> value,
                         size_t bytes, CacheCounters* counters) {
  InsertInMemory(key, value, bytes, counters);
  if (persist_ == nullptr) return;
  if (persist_->Contains(key)) return;  // already durable; skip re-encoding
  ByteWriter out;
  SerializeArtifact(key.kind, value.get(), out);
  persist_->Append(key, kArtifactPayloadVersion, out.Take());
  persist_writes_.fetch_add(1, std::memory_order_relaxed);
  if (counters != nullptr) ++counters->persist_writes;
}

void OmqCache::InsertInMemory(const CacheKey& key,
                              std::shared_ptr<const void> value, size_t bytes,
                              CacheCounters* counters) {
  if (FaultInjector* fi = fault_injector_.load(std::memory_order_acquire)) {
    // A dropped insert is indistinguishable from an immediate eviction:
    // the caller keeps its freshly computed value, only reuse is lost.
    if (fi->OnCacheInsert()) return;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.bytes -= it->second->bytes;
    shard.bytes += bytes;
    it->second->value = std::move(value);
    it->second->bytes = bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, std::move(value), bytes});
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  ++shard.counters.insertions;
  shard.counters.bytes_inserted += bytes;
  if (counters != nullptr) {
    ++counters->insertions;
    counters->bytes_inserted += bytes;
  }
  while (shard.lru.size() > per_shard_capacity_) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.counters.evictions;
    if (counters != nullptr) ++counters->evictions;
  }
}

OmqCacheStats OmqCache::Stats() const {
  OmqCacheStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.counters.Merge(shard->counters);
    stats.entries += shard->lru.size();
    stats.bytes += shard->bytes;
  }
  if (persist_ != nullptr) {
    stats.counters.persist_hits =
        persist_hits_.load(std::memory_order_relaxed);
    stats.counters.persist_writes =
        persist_writes_.load(std::memory_order_relaxed);
    PersistentStoreStats ps = persist_->stats();
    stats.persist_entries = ps.entries;
    stats.persist_segments = ps.segments;
    stats.persist_corrupt_records = ps.corrupt_records;
    stats.persist_version_rejects = ps.version_rejects;
  }
  return stats;
}

void OmqCache::Flush() {
  if (persist_ == nullptr) return;
  Status status = persist_->Flush();
  if (!status.ok()) {
    std::fprintf(stderr, "omqc: cache flush failed: %s\n",
                 status.message().c_str());
  }
}

size_t OmqCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace omqc
