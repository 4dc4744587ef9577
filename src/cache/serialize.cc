#include "cache/serialize.h"

#include <utility>

#include "cache/cached_ops.h"
#include "logic/instance.h"
#include "logic/serialize.h"

namespace omqc {
namespace {

void SerializeXRewriteStats(const XRewriteStats& s, ByteWriter& out) {
  out.U64(s.rewriting_steps);
  out.U64(s.factorization_steps);
  out.U64(s.queries_generated);
  out.U64(s.max_disjunct_atoms);
  out.U64(s.dedup_hits);
  out.U64(s.subsumption_prunes);
  out.U64(s.subsumption_checks);
  out.U64(s.minimize_checks);
}

XRewriteStats DeserializeXRewriteStats(ByteReader& in) {
  XRewriteStats s;
  s.rewriting_steps = in.U64();
  s.factorization_steps = in.U64();
  s.queries_generated = in.U64();
  s.max_disjunct_atoms = in.U64();
  s.dedup_hits = in.U64();
  s.subsumption_prunes = in.U64();
  s.subsumption_checks = in.U64();
  s.minimize_checks = in.U64();
  return s;
}

Result<DecodedArtifact> DecodeRewriting(ByteReader& in) {
  auto entry = std::make_shared<CachedRewriting>();
  OMQC_ASSIGN_OR_RETURN(entry->ucq, DeserializeUCQ(in));
  entry->compute_stats = DeserializeXRewriteStats(in);
  if (!in.ok()) return Status::InvalidArgument("truncated rewriting stats");
  size_t bytes = ApproxBytes(entry->ucq);
  return DecodedArtifact{std::move(entry), bytes};
}

Result<DecodedArtifact> DecodeChase(ByteReader& in) {
  auto chase = std::make_shared<CachedChase>();
  OMQC_ASSIGN_OR_RETURN(chase->instance, Instance::Restore(in));
  size_t bytes = chase->instance.MemoryBytes();
  return DecodedArtifact{std::move(chase), bytes};
}

}  // namespace

void SerializeFingerprint(const Fingerprint& fp, ByteWriter& out) {
  out.U64(fp.hi);
  out.U64(fp.lo);
}

Fingerprint DeserializeFingerprint(ByteReader& in) {
  Fingerprint fp;
  fp.hi = in.U64();
  fp.lo = in.U64();
  return fp;
}

void SerializeArtifact(ArtifactKind kind, const void* value, ByteWriter& out) {
  switch (kind) {
    case ArtifactKind::kRewriting: {
      const auto* entry = static_cast<const CachedRewriting*>(value);
      SerializeUCQ(entry->ucq, out);
      SerializeXRewriteStats(entry->compute_stats, out);
      return;
    }
    case ArtifactKind::kChasedInstance: {
      const auto* chase = static_cast<const CachedChase*>(value);
      chase->instance.Snapshot(out);
      return;
    }
  }
}

Result<DecodedArtifact> DeserializeArtifact(ArtifactKind kind,
                                            ByteReader& in) {
  switch (kind) {
    case ArtifactKind::kRewriting:
      return DecodeRewriting(in);
    case ArtifactKind::kChasedInstance:
      return DecodeChase(in);
  }
  return Status::InvalidArgument("unknown artifact kind");
}

}  // namespace omqc
