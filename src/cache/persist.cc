#include "cache/persist.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "base/binary_io.h"
#include "base/string_util.h"

namespace omqc {
namespace {

// ---------------------------------------------------------------------------
// XXH64 (public-domain algorithm), implemented inline to avoid a dependency.

constexpr uint64_t kXxhPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kXxhPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kXxhPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kXxhPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kXxhPrime5 = 0x27D4EB2F165667C5ULL;

inline uint64_t Rotl64(uint64_t v, int r) {
  return (v << r) | (v >> (64 - r));
}

inline uint64_t ReadLe64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;  // the build targets little-endian only (see DESIGN.md)
}

inline uint64_t ReadLe32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t XxhRound(uint64_t acc, uint64_t input) {
  acc += input * kXxhPrime2;
  acc = Rotl64(acc, 31);
  return acc * kXxhPrime1;
}

inline uint64_t XxhMergeRound(uint64_t acc, uint64_t val) {
  acc ^= XxhRound(0, val);
  return acc * kXxhPrime1 + kXxhPrime4;
}

}  // namespace

uint64_t Xxh64(const void* data, size_t size, uint64_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const uint8_t* const end = p + size;
  uint64_t h;
  if (size >= 32) {
    uint64_t v1 = seed + kXxhPrime1 + kXxhPrime2;
    uint64_t v2 = seed + kXxhPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kXxhPrime1;
    const uint8_t* const limit = end - 32;
    do {
      v1 = XxhRound(v1, ReadLe64(p));
      v2 = XxhRound(v2, ReadLe64(p + 8));
      v3 = XxhRound(v3, ReadLe64(p + 16));
      v4 = XxhRound(v4, ReadLe64(p + 24));
      p += 32;
    } while (p <= limit);
    h = Rotl64(v1, 1) + Rotl64(v2, 7) + Rotl64(v3, 12) + Rotl64(v4, 18);
    h = XxhMergeRound(h, v1);
    h = XxhMergeRound(h, v2);
    h = XxhMergeRound(h, v3);
    h = XxhMergeRound(h, v4);
  } else {
    h = seed + kXxhPrime5;
  }
  h += static_cast<uint64_t>(size);
  while (p + 8 <= end) {
    h ^= XxhRound(0, ReadLe64(p));
    h = Rotl64(h, 27) * kXxhPrime1 + kXxhPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= ReadLe32(p) * kXxhPrime1;
    h = Rotl64(h, 23) * kXxhPrime2 + kXxhPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= (*p) * kXxhPrime5;
    h = Rotl64(h, 11) * kXxhPrime1;
    ++p;
  }
  h ^= h >> 33;
  h *= kXxhPrime2;
  h ^= h >> 29;
  h *= kXxhPrime3;
  h ^= h >> 32;
  return h;
}

namespace {

// ---------------------------------------------------------------------------
// Format constants. Magics are 4 ASCII bytes read as little-endian u32.

constexpr uint32_t kSegmentMagic = 0x53514D4Fu;   // "OMQS"
constexpr uint32_t kManifestMagic = 0x4D514D4Fu;  // "OMQM"

constexpr uint8_t kRecordArtifact = 1;

/// Record payloads may be large (a chased instance), but a single record
/// claiming more than this is treated as a tear.
constexpr uint32_t kMaxRecordPayload = 1u << 30;

std::string SegmentHeader() {
  ByteWriter w;
  w.U32(kSegmentMagic);
  w.U32(kSegmentFormatVersion);
  w.U64(kBuildEpoch);
  return w.Take();
}

/// Encodes one artifact record, checksum included. The checksum covers
/// every record byte before it.
std::string EncodeArtifactRecord(const CacheKey& key, uint32_t payload_version,
                                 const std::string& payload) {
  ByteWriter w;
  w.U8(kRecordArtifact);
  w.U64(key.fingerprint.hi);
  w.U64(key.fingerprint.lo);
  w.U64(key.options_digest);
  w.U8(static_cast<uint8_t>(key.kind));
  w.U32(payload_version);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.Bytes(payload.data(), payload.size());
  w.U64(Xxh64(w.data().data(), w.size()));
  return w.Take();
}

bool ReadWholeFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return in.good() || in.eof();
}

}  // namespace

// ---------------------------------------------------------------------------
// PersistentStore

Result<std::unique_ptr<PersistentStore>> PersistentStore::Open(
    const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal(
        StrCat("cannot create cache dir ", dir, ": ", ec.message()));
  }
  std::unique_ptr<PersistentStore> store(new PersistentStore(dir));

  // The manifest is the source of truth for which segments exist; a
  // missing or bad manifest simply means an empty (or freshly reset)
  // store. Segment files it does not list are leftovers from a crashed
  // flush and are ignored.
  std::string manifest;
  if (ReadWholeFile(dir + "/MANIFEST", &manifest) && manifest.size() >= 8) {
    const size_t body_size = manifest.size() - 8;
    ByteReader check(manifest.data() + body_size, 8);
    if (check.U64() == Xxh64(manifest.data(), body_size)) {
      ByteReader r(manifest.data(), body_size);
      uint32_t magic = r.U32();
      uint32_t version = r.U32();
      uint64_t epoch = r.U64();
      if (magic != kManifestMagic || version != kSegmentFormatVersion ||
          epoch != kBuildEpoch) {
        ++store->version_rejects_;
      } else {
        store->next_segment_id_ = r.U64();
        uint32_t n = r.U32();
        for (uint32_t i = 0; r.ok() && i < n; ++i) {
          std::string name = r.Str();
          if (!r.ok()) break;
          store->segment_names_.push_back(name);
        }
        if (!r.ok()) {
          // Checksummed yet unreadable: a writer bug, not a torn write.
          store->segment_names_.clear();
          store->next_segment_id_ = 0;
          ++store->corrupt_records_;
        }
      }
    } else {
      ++store->corrupt_records_;
    }
  }
  for (const std::string& name : store->segment_names_) {
    store->LoadSegment(dir + "/" + name);
  }
  return store;
}

void PersistentStore::LoadSegment(const std::string& path) {
  std::string bytes;
  if (!ReadWholeFile(path, &bytes)) {
    ++corrupt_records_;
    return;
  }
  ByteReader r(bytes);
  uint32_t magic = r.U32();
  uint32_t version = r.U32();
  uint64_t epoch = r.U64();
  if (!r.ok() || magic != kSegmentMagic) {
    ++corrupt_records_;
    return;
  }
  if (version != kSegmentFormatVersion || epoch != kBuildEpoch) {
    ++version_rejects_;
    return;
  }
  while (!r.AtEnd()) {
    // Checksums cover the record bytes before them; remember where this
    // record starts so the stored hash can be recomputed.
    const size_t start = bytes.size() - r.remaining();
    uint8_t type = r.U8();
    CacheKey key;
    key.fingerprint.hi = r.U64();
    key.fingerprint.lo = r.U64();
    key.options_digest = r.U64();
    uint8_t kind = r.U8();
    uint32_t payload_version = r.U32();
    uint32_t payload_len = r.U32();
    if (!r.ok() || type != kRecordArtifact || payload_len > kMaxRecordPayload ||
        payload_len > r.remaining() ||
        kind > static_cast<uint8_t>(ArtifactKind::kChasedInstance)) {
      ++corrupt_records_;
      return;  // cannot resync past a tear in an append-only file
    }
    auto payload = std::make_shared<std::string>();
    payload->resize(payload_len);
    r.Bytes(payload->data(), payload_len);
    const size_t body_size = (bytes.size() - r.remaining()) - start;
    uint64_t stored = r.U64();
    if (!r.ok() || stored != Xxh64(bytes.data() + start, body_size)) {
      ++corrupt_records_;
      return;
    }
    key.kind = static_cast<ArtifactKind>(kind);
    index_[key] = Entry{std::move(payload), payload_version};
  }
}

std::shared_ptr<const std::string> PersistentStore::Lookup(
    const CacheKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  // A foreign payload version is invisible rather than an error: the
  // caller recompiles and overwrites with the current encoding.
  if (it->second.payload_version != kArtifactPayloadVersion) return nullptr;
  return it->second.payload;
}

bool PersistentStore::Contains(const CacheKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  return it != index_.end() &&
         it->second.payload_version == kArtifactPayloadVersion;
}

void PersistentStore::Append(const CacheKey& key, uint32_t payload_version,
                             std::string payload) {
  auto shared = std::make_shared<const std::string>(std::move(payload));
  std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back(EncodeArtifactRecord(key, payload_version, *shared));
  index_[key] = Entry{std::move(shared), payload_version};
}

Status PersistentStore::WriteFileDurably(const std::string& final_path,
                                         const std::string& bytes) {
  const std::string tmp_path = final_path + ".tmp";
  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal(
        StrCat("open ", tmp_path, ": ", std::strerror(errno)));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      int saved = errno;
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return Status::Internal(
          StrCat("write ", tmp_path, ": ", std::strerror(saved)));
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp_path.c_str());
    return Status::Internal(StrCat("fsync ", tmp_path));
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    return Status::Internal(
        StrCat("rename ", final_path, ": ", std::strerror(errno)));
  }
  // Make the rename itself durable.
  int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

Status PersistentStore::Flush() {
  std::vector<std::string> records;
  std::vector<std::string> segment_names;
  uint64_t segment_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) return Status::OK();
    records.swap(pending_);
    segment_id = next_segment_id_++;
    segment_names = segment_names_;
  }
  std::string name = StrCat("seg-", segment_id, ".omqs");
  std::string bytes = SegmentHeader();
  for (const std::string& rec : records) bytes += rec;
  Status seg = WriteFileDurably(dir_ + "/" + name, bytes);
  if (!seg.ok()) {
    // Put the records back so a later Flush can retry.
    std::lock_guard<std::mutex> lock(mu_);
    records.insert(records.end(), std::make_move_iterator(pending_.begin()),
                   std::make_move_iterator(pending_.end()));
    pending_ = std::move(records);
    return seg;
  }
  segment_names.push_back(name);
  ByteWriter m;
  m.U32(kManifestMagic);
  m.U32(kSegmentFormatVersion);
  m.U64(kBuildEpoch);
  m.U64(segment_id + 1);
  m.U32(static_cast<uint32_t>(segment_names.size()));
  for (const std::string& s : segment_names) m.Str(s);
  m.U64(Xxh64(m.data().data(), m.size()));
  Status man = WriteFileDurably(dir_ + "/MANIFEST", m.data());
  if (!man.ok()) return man;
  std::lock_guard<std::mutex> lock(mu_);
  segment_names_ = std::move(segment_names);
  return Status::OK();
}

PersistentStoreStats PersistentStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PersistentStoreStats s;
  s.entries = index_.size();
  s.segments = segment_names_.size();
  s.corrupt_records = corrupt_records_;
  s.version_rejects = version_rejects_;
  return s;
}

}  // namespace omqc
