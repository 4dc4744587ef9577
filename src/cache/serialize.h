// Artifact-kind-dispatched binary (de)serialization for the persistent
// tier of the cache (cache/persist.h). Builds on the logic layer's
// serializers (logic/serialize.h); payloads are name-based and therefore
// stable across processes and interning orders. Every ArtifactKind has
// an on-disk form.

#ifndef OMQC_CACHE_SERIALIZE_H_
#define OMQC_CACHE_SERIALIZE_H_

#include <cstdint>
#include <memory>

#include "base/binary_io.h"
#include "base/status.h"
#include "cache/omq_cache.h"

namespace omqc {

/// Version of the artifact payload encodings below. Bump on any layout
/// change; the persistent store rejects (counts, never crashes on)
/// payloads of a foreign version.
constexpr uint32_t kArtifactPayloadVersion = 3;

void SerializeFingerprint(const Fingerprint& fp, ByteWriter& out);
Fingerprint DeserializeFingerprint(ByteReader& in);

/// Encodes the artifact `value` of the given kind (which must be the
/// type-erased pointer the cache holds for that kind).
void SerializeArtifact(ArtifactKind kind, const void* value, ByteWriter& out);

/// A decoded artifact: the type-erased value (pointing at the type the
/// cache's consumers expect for `kind`) plus the byte estimate to account
/// it under — the same estimate the original Put would have used, so
/// memory-tier occupancy matches cold-computed entries exactly.
struct DecodedArtifact {
  std::shared_ptr<const void> value;
  size_t bytes = 0;
};

/// Inverse of SerializeArtifact. Total over arbitrary bytes: malformed
/// input yields an error Status, never a crash.
Result<DecodedArtifact> DeserializeArtifact(ArtifactKind kind, ByteReader& in);

}  // namespace omqc

#endif  // OMQC_CACHE_SERIALIZE_H_
