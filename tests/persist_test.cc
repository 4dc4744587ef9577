// The persistent artifact store (cache/persist.h, cache/serialize.cc):
//
//   * artifact payloads round-trip byte-observationally (rewritings,
//     profiles, chased instances) across ontology classes, including
//     factory scenarios;
//   * the arena snapshot reproduces the instance exactly — same atoms,
//     same indexes, same answers;
//   * a second disk-backed OmqCache over the same directory serves
//     compilations from disk (persist hits, zero recompilation) with
//     byte-identical verdicts, as does the same cache after evicting
//     them from memory;
//   * corruption (every single-bit flip, every truncation point) and
//     foreign format versions degrade to a cold compile — never a crash,
//     never a wrong artifact.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/binary_io.h"
#include "cache/cached_ops.h"
#include "cache/canonical.h"
#include "cache/persist.h"
#include "cache/serialize.h"
#include "chase/chase.h"
#include "core/containment.h"
#include "core/eval.h"
#include "core/frontend.h"
#include "logic/homomorphism.h"
#include "rewrite/xrewrite.h"
#include "soak/scenario.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty directory under the test temp root.
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "omqc_persist_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

Schema S(std::initializer_list<std::pair<const char*, int>> preds) {
  Schema s;
  for (const auto& [name, arity] : preds) s.Add(Predicate::Get(name, arity));
  return s;
}

Omq MakeOmq(Schema schema, const std::string& tgds,
            const std::string& query) {
  return Omq{std::move(schema), ParseTgds(tgds).value(),
             ParseQuery(query).value()};
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
}

std::string SegmentPath(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("seg-", 0) == 0) return entry.path().string();
  }
  ADD_FAILURE() << "no segment file in " << dir;
  return "";
}

// ---------------------------------------------------------------------------
// Payload round trips.

TEST(SerializeTest, RewritingRoundTripsAcrossClasses) {
  // One ontology per class the engine special-cases; the rewriting payload
  // (UCQ + compute stats) must decode to an observationally identical
  // artifact.
  const struct {
    const char* tgds;
    const char* query;
    std::initializer_list<std::pair<const char*, int>> schema;
  } cases[] = {
      // linear
      {"A(X) -> B(X). B(X) -> C(X,Y).",
       "Q(X) :- C(X,Y)",
       {{"A", 1}, {"B", 1}, {"C", 2}}},
      // sticky (repeated join variable never propagated)
      {"R(X,Y), R(Y,Z) -> T(X,Z). T(X,Z) -> U(X).",
       "Q(X) :- U(X)",
       {{"R", 2}, {"T", 2}, {"U", 1}}},
      // non-recursive
      {"P(X) -> Q1(X). Q1(X), P(X) -> R(X).",
       "Q(X) :- R(X)",
       {{"P", 1}, {"Q1", 1}, {"R", 1}}},
      // guarded (recursive)
      {"E(X,Y) -> E(Y,X). E(X,Y) -> N(X).",
       "Q(X) :- N(X)",
       {{"E", 2}, {"N", 1}}},
  };
  for (const auto& c : cases) {
    Omq omq = MakeOmq(S(c.schema), c.tgds, c.query);
    auto original = std::make_shared<CachedRewriting>();
    XRewriteOptions options;
    options.max_queries = 200;
    auto ucq = XRewrite(omq.data_schema, omq.tgds, omq.query, options,
                        &original->compute_stats);
    ASSERT_TRUE(ucq.ok()) << c.tgds << ": " << ucq.status().ToString();
    original->ucq = std::move(*ucq);

    ByteWriter out;
    SerializeArtifact(ArtifactKind::kRewriting, original.get(), out);
    std::string bytes = out.Take();
    ByteReader in(bytes);
    auto decoded = DeserializeArtifact(ArtifactKind::kRewriting, in);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const auto* restored =
        static_cast<const CachedRewriting*>(decoded->value.get());
    EXPECT_EQ(restored->ucq.ToString(), original->ucq.ToString()) << c.tgds;
    EXPECT_EQ(restored->compute_stats.rewriting_steps,
              original->compute_stats.rewriting_steps);
    EXPECT_EQ(restored->compute_stats.queries_generated,
              original->compute_stats.queries_generated);
    EXPECT_EQ(decoded->bytes, ApproxBytes(original->ucq));
  }
}

TEST(SerializeTest, RewritingRoundTripsOnFactoryScenarios) {
  // Randomized OMQs across the four factory classes: the rewriting of
  // Q1 under the scenario ontology round-trips on every one.
  const TgdClass classes[] = {TgdClass::kLinear, TgdClass::kSticky,
                              TgdClass::kNonRecursive, TgdClass::kGuarded};
  for (TgdClass cls : classes) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      ScenarioSpec spec;
      spec.seed = seed;
      spec.tgd_class = cls;
      Scenario scenario = MakeScenario(spec);
      Schema schema = InferProgramDataSchema(scenario.program);
      auto omq = SingleQueryNamed(scenario.program, schema, kLhsQuery);
      ASSERT_TRUE(omq.ok());
      auto original = std::make_shared<CachedRewriting>();
      XRewriteOptions options;
      options.max_queries = 120;
      options.max_steps = 20000;
      options.prune_subsumed = true;
      auto ucq = XRewrite(omq->data_schema, omq->tgds, omq->query, options,
                          &original->compute_stats);
      if (!ucq.ok()) continue;  // budget-limited guarded rewriting: skip
      original->ucq = std::move(*ucq);

      ByteWriter out;
      SerializeArtifact(ArtifactKind::kRewriting, original.get(), out);
      std::string bytes = out.Take();
      ByteReader in(bytes);
      auto decoded = DeserializeArtifact(ArtifactKind::kRewriting, in);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      const auto* restored =
          static_cast<const CachedRewriting*>(decoded->value.get());
      EXPECT_EQ(restored->ucq.ToString(), original->ucq.ToString())
          << TgdClassToString(cls) << " seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Arena snapshot / restore.

TEST(SnapshotTest, ChasedInstanceRestoresExactly) {
  // Chase output carries labelled nulls — the hard case for a name-based
  // snapshot (nulls have no cross-process name, only reserved ids).
  TgdSet tgds =
      ParseTgds("P(X) -> R(X,Y). R(X,Y) -> S(Y). S(X), P(X) -> T(X).")
          .value();
  Database db;
  db.Add(Atom::Make("P", {Term::Constant("a")}));
  db.Add(Atom::Make("P", {Term::Constant("b")}));
  auto chased = Chase(db, tgds);
  ASSERT_TRUE(chased.ok());
  ASSERT_TRUE(chased->complete);
  const Instance& original = chased->instance;

  ByteWriter out;
  original.Snapshot(out);
  std::string bytes = out.Take();
  ByteReader in(bytes);
  auto restored = Instance::Restore(in);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(restored->size(), original.size());
  EXPECT_TRUE(*restored == original);
  EXPECT_EQ(restored->ToString(), original.ToString());
  EXPECT_EQ(restored->MemoryBytes(), original.MemoryBytes());
  // Index equality: every original atom is findable, with the same id
  // (Restore re-inserts in insertion order).
  for (AtomId id = 0; id < original.size(); ++id) {
    AtomView v = original.view(id);
    Atom atom(v.predicate(), std::vector<Term>(v.begin(), v.end()));
    EXPECT_EQ(restored->FindId(atom), id);
  }
  // The restored instance answers queries identically.
  ConjunctiveQuery q = ParseQuery("Q(X) :- R(X,Y), S(Y)").value();
  EXPECT_EQ(EvaluateCQ(q, original), EvaluateCQ(q, *restored));
}

TEST(SnapshotTest, RestoredNullsNeverCollideWithFreshOnes) {
  TgdSet tgds = ParseTgds("P(X) -> R(X,Y).").value();
  Database db;
  db.Add(Atom::Make("P", {Term::Constant("a")}));
  auto chased = Chase(db, tgds);
  ASSERT_TRUE(chased.ok());
  ByteWriter out;
  chased->instance.Snapshot(out);
  std::string bytes = out.Take();
  ByteReader in(bytes);
  auto restored = Instance::Restore(in);
  ASSERT_TRUE(restored.ok());
  // A chase that runs from the restored instance must mint nulls distinct
  // from every restored one: S(n, m) with m == n would be an alias.
  TgdSet more = ParseTgds("R(X,Y) -> S(Y,Z).").value();
  auto rechased = Chase(*restored, more);
  ASSERT_TRUE(rechased.ok());
  EXPECT_EQ(rechased->instance.size(), restored->size() + 1);
  std::vector<Term> restored_nulls;
  for (const Term& t : restored->ActiveDomain()) {
    if (t.IsNull()) restored_nulls.push_back(t);
  }
  ASSERT_EQ(restored_nulls.size(), 1u);
  for (AtomId id : rechased->instance.IdsWith(Predicate::Get("S", 2))) {
    AtomView s = rechased->instance.view(id);
    EXPECT_EQ(s.arg(0), restored_nulls[0]);
    EXPECT_TRUE(s.arg(1).IsNull());
    EXPECT_NE(s.arg(1), restored_nulls[0]);
  }
}

TEST(SnapshotTest, RestoreIsTotalOnGarbage) {
  // Truncations and bit flips of a valid snapshot must fail cleanly (or
  // decode a valid prefix instance) — never crash.
  TgdSet tgds = ParseTgds("P(X) -> R(X,Y). R(X,Y) -> S(Y).").value();
  Database db;
  db.Add(Atom::Make("P", {Term::Constant("anchor")}));
  auto chased = Chase(db, tgds);
  ASSERT_TRUE(chased.ok());
  ByteWriter out;
  chased->instance.Snapshot(out);
  std::string bytes = out.Take();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::string truncated = bytes.substr(0, cut);
    ByteReader in(truncated);
    auto restored = Instance::Restore(in);  // must not crash
    (void)restored;
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    ByteReader in(flipped);
    auto restored = Instance::Restore(in);  // must not crash
    (void)restored;
  }
}

// ---------------------------------------------------------------------------
// Disk-backed OmqCache warm start.

TEST(DiskBackedCacheTest, SecondStoreServesCompilationsFromDisk) {
  std::string dir = FreshDir("warm");
  Omq q1 = MakeOmq(S({{"Edge", 2}, {"Conn", 2}}),
                   "Edge(X,Y) -> Conn(X,Y).",
                   "Q(X) :- Conn(X,Y), Conn(Y,Z)");
  Omq q2 = MakeOmq(S({{"Edge", 2}, {"Conn", 2}}),
                   "Edge(X,Y) -> Conn(X,Y).", "Q(X) :- Conn(X,Y)");

  std::string cold_report;
  {
    auto store = OmqCache::Open(OmqCacheConfig(), dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ContainmentOptions options;
    options.cache = store->get();
    auto result = CheckContainment(q1, q2, options);
    ASSERT_TRUE(result.ok());
    cold_report = FormatContainmentReport("Q1", "Q2", *result);
    EXPECT_GT(result->stats.cache.persist_writes, 0u);
    (*store)->Flush();
  }

  auto warm_store = OmqCache::Open(OmqCacheConfig(), dir);
  ASSERT_TRUE(warm_store.ok());
  EXPECT_GT((*warm_store)->Stats().persist_entries, 0u);
  ContainmentOptions options;
  options.cache = warm_store->get();
  auto result = CheckContainment(q1, q2, options);
  ASSERT_TRUE(result.ok());
  // Byte-identical verdict, served from disk, nothing recompiled.
  EXPECT_EQ(FormatContainmentReport("Q1", "Q2", *result), cold_report);
  EXPECT_GT(result->stats.cache.persist_hits, 0u);
  EXPECT_EQ(result->stats.rewrite.rewriting_steps, 0u);
  EXPECT_EQ(result->stats.rewrite.queries_generated, 0u);
}

TEST(DiskBackedCacheTest, WarmStartAgreesOnFactoryScenarios) {
  // Cold vs warm-from-disk containment over factory scenarios of every
  // class: outcome and full report must be byte-identical.
  const TgdClass classes[] = {TgdClass::kLinear, TgdClass::kSticky,
                              TgdClass::kNonRecursive, TgdClass::kGuarded};
  for (TgdClass cls : classes) {
    ScenarioSpec spec;
    spec.seed = 7;
    spec.tgd_class = cls;
    spec.contained = (cls == TgdClass::kLinear || cls == TgdClass::kSticky);
    Scenario scenario = MakeScenario(spec);
    Schema schema = InferProgramDataSchema(scenario.program);
    auto q1 = SingleQueryNamed(scenario.program, schema, kLhsQuery);
    auto q2 = SingleQueryNamed(scenario.program, schema, kRhsQuery);
    ASSERT_TRUE(q1.ok());
    ASSERT_TRUE(q2.ok());
    std::string dir =
        FreshDir(std::string("scen_") + TgdClassToString(cls));
    auto contain = [&](OmqCache* cache) {
      ContainmentOptions options;
      options.rewrite.max_queries = 120;
      options.rewrite.max_steps = 20000;
      options.rewrite.prune_subsumed = true;
      options.cache = cache;
      return CheckContainment(*q1, *q2, options);
    };
    std::string cold_report;
    {
      auto store = OmqCache::Open(OmqCacheConfig(), dir);
      ASSERT_TRUE(store.ok());
      auto cold = contain(store->get());
      ASSERT_TRUE(cold.ok());
      cold_report = FormatContainmentReport("Q1", "Q2", *cold);
      (*store)->Flush();
    }
    auto warm_store = OmqCache::Open(OmqCacheConfig(), dir);
    ASSERT_TRUE(warm_store.ok());
    auto warm = contain(warm_store->get());
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(FormatContainmentReport("Q1", "Q2", *warm), cold_report)
        << TgdClassToString(cls);
  }
}

TEST(DiskBackedCacheTest, ChaseResultsWarmStartAcrossStores) {
  // Full + non-recursive ontology: EvalAll takes the chase path and the
  // saturated instance snapshot must round-trip through the store.
  std::string dir = FreshDir("chase");
  Omq omq = MakeOmq(S({{"A", 1}, {"B", 1}}), "A(X) -> B(X).",
                    "Q(X) :- B(X)");
  Database db;
  db.Add(Atom::Make("A", {Term::Constant("a")}));
  db.Add(Atom::Make("B", {Term::Constant("b")}));

  std::vector<std::vector<Term>> cold_answers;
  {
    auto store = OmqCache::Open(OmqCacheConfig(), dir);
    ASSERT_TRUE(store.ok());
    EvalOptions options;
    options.cache = store->get();
    auto answers = EvalAll(omq, db, options);
    ASSERT_TRUE(answers.ok());
    cold_answers = *answers;
    (*store)->Flush();
  }
  auto warm_store = OmqCache::Open(OmqCacheConfig(), dir);
  ASSERT_TRUE(warm_store.ok());
  EvalOptions options;
  options.cache = warm_store->get();
  EngineStats stats;
  auto answers = EvalAll(omq, db, options, &stats);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(*answers, cold_answers);
  EXPECT_GT(stats.cache.persist_hits, 0u);
  EXPECT_EQ(stats.chase_steps, 0u) << "warm run re-chased";
}

TEST(DiskBackedCacheTest, EvictedRewritingIsServedFromDiskInProcess) {
  // Capacity 1: every insert evicts the previous entry from memory, so the
  // second request finds its rewriting only in the disk tier.
  std::string dir = FreshDir("evicted");
  Omq q1 = MakeOmq(S({{"Edge", 2}, {"Conn", 2}}),
                   "Edge(X,Y) -> Conn(X,Y).",
                   "Q(X) :- Conn(X,Y), Conn(Y,Z)");
  Omq q2 = MakeOmq(S({{"Edge", 2}, {"Conn", 2}}),
                   "Edge(X,Y) -> Conn(X,Y).", "Q(X) :- Conn(X,Y)");
  Omq other = MakeOmq(S({{"C", 1}, {"D", 1}}), "C(X) -> D(X).",
                      "Q(X) :- D(X)");
  auto cache = OmqCache::Open(OmqCacheConfig{1, 1}, dir);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  ContainmentOptions options;
  options.cache = cache->get();

  auto cold = CheckContainment(q1, q2, options);
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold->stats.rewrite.queries_generated, 0u);
  // An unrelated request pushes every artifact of the first out of memory.
  ASSERT_TRUE(CheckContainment(other, other, options).ok());
  EXPECT_EQ((*cache)->size(), 1u);

  auto warm = CheckContainment(q1, q2, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(FormatContainmentReport("Q1", "Q2", *warm),
            FormatContainmentReport("Q1", "Q2", *cold));
  EXPECT_GT(warm->stats.cache.persist_hits, 0u);
  EXPECT_EQ(warm->stats.rewrite.queries_generated, 0u);
}

// ---------------------------------------------------------------------------
// Corruption and version robustness.

/// Stages two known records and seals them; returns the keys.
std::vector<CacheKey> SeedStore(const std::string& dir,
                                std::string* payload1,
                                std::string* payload2) {
  auto store = PersistentStore::Open(dir);
  EXPECT_TRUE(store.ok());
  CacheKey k1{Fingerprint{0x1111, 0x2222}, 7, ArtifactKind::kRewriting};
  CacheKey k2{Fingerprint{0x3333, 0x4444}, 9, ArtifactKind::kChasedInstance};
  *payload1 = "the first payload";
  *payload2 = "a second, slightly longer payload";
  (*store)->Append(k1, kArtifactPayloadVersion, *payload1);
  (*store)->Append(k2, kArtifactPayloadVersion, *payload2);
  EXPECT_TRUE((*store)->Flush().ok());
  return {k1, k2};
}

TEST(CorruptionTest, EveryBitFlipDegradesToColdCompile) {
  std::string dir = FreshDir("bitflip");
  std::string p1, p2;
  std::vector<CacheKey> keys = SeedStore(dir, &p1, &p2);
  std::string seg_path = SegmentPath(dir);
  ASSERT_FALSE(seg_path.empty());
  const std::string good = ReadFile(seg_path);
  ASSERT_FALSE(good.empty());

  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    WriteFile(seg_path, bad);
    auto store = PersistentStore::Open(dir);
    ASSERT_TRUE(store.ok()) << "open crashed on flip at byte " << i;
    // Every surviving lookup must return the exact original payload;
    // everything else is a miss (cold compile).
    auto r1 = (*store)->Lookup(keys[0]);
    auto r2 = (*store)->Lookup(keys[1]);
    if (r1 != nullptr) {
      EXPECT_EQ(*r1, p1) << "flip at byte " << i;
    }
    if (r2 != nullptr) {
      EXPECT_EQ(*r2, p2) << "flip at byte " << i;
    }
  }
  WriteFile(seg_path, good);
}

TEST(CorruptionTest, EveryTruncationDegradesToColdCompile) {
  std::string dir = FreshDir("truncate");
  std::string p1, p2;
  std::vector<CacheKey> keys = SeedStore(dir, &p1, &p2);
  std::string seg_path = SegmentPath(dir);
  ASSERT_FALSE(seg_path.empty());
  const std::string good = ReadFile(seg_path);

  for (size_t cut = 0; cut < good.size(); ++cut) {
    WriteFile(seg_path, good.substr(0, cut));
    auto store = PersistentStore::Open(dir);
    ASSERT_TRUE(store.ok()) << "open crashed at truncation " << cut;
    auto r1 = (*store)->Lookup(keys[0]);
    auto r2 = (*store)->Lookup(keys[1]);
    if (r1 != nullptr) {
      EXPECT_EQ(*r1, p1) << "truncation at " << cut;
    }
    if (r2 != nullptr) {
      EXPECT_EQ(*r2, p2) << "truncation at " << cut;
    }
    if (cut < good.size() - 1) {
      // Some prefix was necessarily lost.
      EXPECT_TRUE(r1 == nullptr || r2 == nullptr);
    }
  }
}

TEST(CorruptionTest, ManifestCorruptionDegradesToEmptyStore) {
  std::string dir = FreshDir("manifest");
  std::string p1, p2;
  std::vector<CacheKey> keys = SeedStore(dir, &p1, &p2);
  std::string manifest_path = dir + "/MANIFEST";
  const std::string good = ReadFile(manifest_path);
  ASSERT_FALSE(good.empty());
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    WriteFile(manifest_path, bad);
    auto store = PersistentStore::Open(dir);
    ASSERT_TRUE(store.ok()) << "open crashed on manifest flip at " << i;
    auto r1 = (*store)->Lookup(keys[0]);
    if (r1 != nullptr) {
      EXPECT_EQ(*r1, p1);
    }
  }
  WriteFile(manifest_path, good);
  auto store = PersistentStore::Open(dir);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->stats().entries, 2u);
}

TEST(CorruptionTest, ForeignSegmentVersionIsRejectedNotLoaded) {
  std::string dir = FreshDir("segversion");
  std::string p1, p2;
  std::vector<CacheKey> keys = SeedStore(dir, &p1, &p2);
  std::string seg_path = SegmentPath(dir);
  std::string bytes = ReadFile(seg_path);
  ASSERT_GE(bytes.size(), 8u);
  // Header: magic u32, then format version u32 (unchecksummed).
  bytes[4] = static_cast<char>(0xEE);
  WriteFile(seg_path, bytes);
  auto store = PersistentStore::Open(dir);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->stats().entries, 0u);
  EXPECT_GE((*store)->stats().version_rejects, 1u);
  EXPECT_EQ((*store)->Lookup(keys[0]), nullptr);
}

TEST(CorruptionTest, PreviousFormatVersionIsRecompiledCold) {
  // A directory written by the previous segment format (same records,
  // version field one lower, manifest checksum valid) is rejected whole:
  // the warm run recompiles and prints the same report.
  std::string dir = FreshDir("prevversion");
  Omq q1 = MakeOmq(S({{"Edge", 2}, {"Conn", 2}}), "Edge(X,Y) -> Conn(X,Y).",
                   "Q(X) :- Conn(X,Y), Conn(Y,Z)");
  Omq q2 = MakeOmq(S({{"Edge", 2}, {"Conn", 2}}), "Edge(X,Y) -> Conn(X,Y).",
                   "Q(X) :- Conn(X,Y)");
  std::string cold_report;
  {
    auto store = OmqCache::Open(OmqCacheConfig(), dir);
    ASSERT_TRUE(store.ok());
    ContainmentOptions options;
    options.cache = store->get();
    auto result = CheckContainment(q1, q2, options);
    ASSERT_TRUE(result.ok());
    cold_report = FormatContainmentReport("Q1", "Q2", *result);
    (*store)->Flush();
  }
  auto set_version = [](std::string* bytes, uint32_t version) {
    for (int i = 0; i < 4; ++i) {
      (*bytes)[4 + i] = static_cast<char>((version >> (8 * i)) & 0xFF);
    }
  };
  const uint32_t previous = kSegmentFormatVersion - 1;
  std::string seg_path = SegmentPath(dir);
  std::string segment = ReadFile(seg_path);
  set_version(&segment, previous);
  WriteFile(seg_path, segment);
  const std::string manifest_path = dir + "/MANIFEST";
  std::string manifest = ReadFile(manifest_path);
  ASSERT_GE(manifest.size(), 16u);
  set_version(&manifest, previous);
  ByteWriter checksum;
  checksum.U64(Xxh64(manifest.data(), manifest.size() - 8));
  manifest.replace(manifest.size() - 8, 8, checksum.Take());
  WriteFile(manifest_path, manifest);

  auto warm = OmqCache::Open(OmqCacheConfig(), dir);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ((*warm)->Stats().persist_entries, 0u);
  EXPECT_GE((*warm)->Stats().persist_version_rejects, 1u);
  ContainmentOptions options;
  options.cache = warm->get();
  auto result = CheckContainment(q1, q2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(FormatContainmentReport("Q1", "Q2", *result), cold_report);
  EXPECT_EQ(result->stats.cache.persist_hits, 0u);
  EXPECT_GT(result->stats.rewrite.queries_generated, 0u);
}

TEST(CorruptionTest, ForeignPayloadVersionIsInvisible) {
  std::string dir = FreshDir("payloadversion");
  CacheKey key{Fingerprint{5, 6}, 1, ArtifactKind::kRewriting};
  {
    auto store = PersistentStore::Open(dir);
    ASSERT_TRUE(store.ok());
    (*store)->Append(key, kArtifactPayloadVersion + 1,
                     "from the future");
    ASSERT_TRUE((*store)->Flush().ok());
  }
  auto store = PersistentStore::Open(dir);
  ASSERT_TRUE(store.ok());
  // The record is well-formed (it loads) but its payload version is
  // foreign, so lookups treat it as absent: the caller recompiles.
  EXPECT_EQ((*store)->Lookup(key), nullptr);
  EXPECT_FALSE((*store)->Contains(key));
}

TEST(CorruptionTest, UndecodablePayloadFallsBackToColdCompile) {
  // A record that passes every checksum but holds garbage (an encoder bug,
  // not disk rot): the disk-backed cache must miss, not crash or serve junk.
  std::string dir = FreshDir("badpayload");
  Omq omq = MakeOmq(S({{"Edge", 2}, {"Conn", 2}}),
                    "Edge(X,Y) -> Conn(X,Y).", "Q(X) :- Conn(X,Y)");
  XRewriteOptions xopts;
  CacheKey key = RewritingCacheKey(omq.data_schema, omq.tgds, omq.query,
                                   xopts);
  {
    auto store = PersistentStore::Open(dir);
    ASSERT_TRUE(store.ok());
    (*store)->Append(key, kArtifactPayloadVersion,
                     "not a rewriting");
    ASSERT_TRUE((*store)->Flush().ok());
  }
  auto cache = OmqCache::Open(OmqCacheConfig(), dir);
  ASSERT_TRUE(cache.ok());
  ContainmentOptions options;
  options.cache = cache->get();
  auto result = CheckContainment(omq, omq, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ContainmentOutcome::kContained);
  // The artifact had to be recompiled.
  EXPECT_GT(result->stats.rewrite.queries_generated, 0u);
}

}  // namespace
}  // namespace omqc
