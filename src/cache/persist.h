// The on-disk tier of the compilation cache (cache/omq_cache.h): a
// versioned, append-only, crash-safe segment store. OmqCache::Open puts
// the sharded in-memory LRU in front of it.
//
// On-disk layout (all integers little-endian, see DESIGN.md "Artifact
// store & snapshot format"):
//
//   <dir>/MANIFEST          magic "OMQM", format version, build epoch,
//                           the ordered list of sealed segment names,
//                           XXH64 checksum of everything before it.
//   <dir>/seg-<n>.omqs      magic "OMQS", format version, build epoch,
//                           then a run of artifact records, each
//                           carrying its own XXH64 checksum: key
//                           {fingerprint, options digest, kind} + payload
//                           version + length-prefixed payload.
//
// Durability: segments are sealed by writing to a temp file, fsync'ing,
// renaming into place and fsync'ing the directory; the manifest is
// rewritten the same way afterwards. A crash mid-flush therefore leaves
// either the old manifest (new segment invisible, cache merely colder) or
// the new one (segment fully durable) — never a half-read state.
//
// Robustness: the loader treats segment bytes as untrusted input. A record
// failing its checksum or bounds stops that segment (append-only files
// cannot be resynced past a tear) and is counted in `corrupt_records`; a
// foreign format version or build epoch rejects the file and is counted in
// `version_rejects`. Every failure degrades to a cold compile — opening a
// store never fails on bad segment bytes and never serves a bad artifact.
//
// Laziness: opening a store only indexes raw payload spans. Artifacts are
// decoded (and their terms interned) on first lookup, so loading a large
// store does not touch the process-wide interning tables.

#ifndef OMQC_CACHE_PERSIST_H_
#define OMQC_CACHE_PERSIST_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/status.h"
#include "cache/omq_cache.h"
#include "cache/serialize.h"

namespace omqc {

/// XXH64 of `size` bytes (seed 0). Used for record and manifest checksums;
/// implemented in persist.cc (public-domain algorithm, no dependency).
uint64_t Xxh64(const void* data, size_t size, uint64_t seed = 0);

/// On-disk format version of segments and the manifest. Bump on layout
/// changes and on key changes: a store keyed by another fingerprint
/// function holds records no lookup can reach, so it must open cold.
/// kArtifactPayloadVersion (cache/serialize.h) separately versions the
/// payloads inside records. Version 4 keys CQs and tgds on their
/// first-occurrence structure (cache/canonical.h).
constexpr uint32_t kSegmentFormatVersion = 4;

/// Build epoch stamped into segments and the manifest: artifacts encode by
/// name and carry their own payload version, so the epoch only changes
/// when cross-build reuse must be severed wholesale.
constexpr uint64_t kBuildEpoch = 1;

struct PersistentStoreStats {
  size_t entries = 0;
  size_t segments = 0;
  size_t corrupt_records = 0;
  size_t version_rejects = 0;
};

/// The on-disk tier. Thread-safe. Single-writer per directory is assumed
/// (concurrent writers do not corrupt each other — rename is atomic — but
/// the last manifest rewrite wins).
class PersistentStore {
 public:
  /// Opens (creating if needed) the store rooted at `dir` and indexes its
  /// sealed segments. Fails only on filesystem errors (unreachable or
  /// uncreatable directory), never on segment contents.
  static Result<std::unique_ptr<PersistentStore>> Open(const std::string& dir);

  PersistentStore(const PersistentStore&) = delete;
  PersistentStore& operator=(const PersistentStore&) = delete;

  /// The raw (still-encoded) payload for `key`, or nullptr. Decoding is
  /// the caller's job — this tier never interns terms.
  std::shared_ptr<const std::string> Lookup(const CacheKey& key) const;

  bool Contains(const CacheKey& key) const;

  /// Stages an artifact record for the next Flush and makes it visible to
  /// Lookup immediately. Last write wins per key.
  void Append(const CacheKey& key, uint32_t payload_version,
              std::string payload);

  /// Seals pending records into a new segment and rewrites the manifest
  /// (temp + fsync + rename). No-op when nothing is pending.
  Status Flush();

  PersistentStoreStats stats() const;

 private:
  explicit PersistentStore(std::string dir) : dir_(std::move(dir)) {}

  struct Entry {
    std::shared_ptr<const std::string> payload;
    uint32_t payload_version = 0;
  };

  void LoadSegment(const std::string& path);
  Status WriteFileDurably(const std::string& final_path,
                          const std::string& bytes);

  const std::string dir_;
  mutable std::mutex mu_;
  std::unordered_map<CacheKey, Entry, CacheKeyHash> index_;
  /// Staged records, encoded, in append order.
  std::vector<std::string> pending_;
  std::vector<std::string> segment_names_;  ///< manifest order
  uint64_t next_segment_id_ = 0;
  size_t corrupt_records_ = 0;
  size_t version_rejects_ = 0;
};

}  // namespace omqc

#endif  // OMQC_CACHE_PERSIST_H_
