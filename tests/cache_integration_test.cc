// Cache-on vs cache-off equivalence: evaluation answers and containment
// outcomes must be identical with and without a shared OmqCache,
// including warm re-runs and queries renamed between calls. Also asserts
// the cache is actually exercised (warm runs hit).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "base/governor.h"
#include "base/string_util.h"
#include "cache/omq_cache.h"
#include "core/containment.h"
#include "core/eval.h"
#include "generators/families.h"
#include "logic/substitution.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

Schema S(std::initializer_list<std::pair<const char*, int>> preds) {
  Schema s;
  for (const auto& [name, arity] : preds) {
    s.Add(Predicate::Get(name, arity));
  }
  return s;
}

Omq MakeOmq(Schema schema, const std::string& tgds,
            const std::string& query) {
  return Omq{std::move(schema), ParseTgds(tgds).value(),
             ParseQuery(query).value()};
}

/// A consistently renamed copy of the OMQ's query (same OMQ semantically).
Omq RenamedQuery(const Omq& omq, const std::string& prefix) {
  Substitution rename;
  for (const Term& v : omq.query.Variables()) {
    rename.Bind(v, Term::Variable(prefix + v.ToString()));
  }
  Omq out = omq;
  out.query = ConjunctiveQuery(rename.Apply(omq.query.answer_vars),
                               rename.Apply(omq.query.body));
  return out;
}

std::vector<std::vector<Term>> Sorted(std::vector<std::vector<Term>> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const std::vector<Term>& a, const std::vector<Term>& b) {
              return JoinMapped(a, ",", [](const Term& t) {
                       return t.ToString();
                     }) < JoinMapped(b, ",", [](const Term& t) {
                       return t.ToString();
                     });
            });
  return rows;
}

/// Checks q1 ⊆ q2 without a cache, then repeatedly with a shared cache
/// (cold, warm, renamed), asserting every run agrees with the uncached
/// outcome. Returns the warm cached result.
ContainmentResult CheckAllModes(const Omq& q1, const Omq& q2,
                                OmqCache* cache) {
  ContainmentOptions options;
  auto uncached = CheckContainment(q1, q2, options);
  EXPECT_TRUE(uncached.ok()) << uncached.status().ToString();
  options.cache = cache;
  auto cold = CheckContainment(q1, q2, options);
  EXPECT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->outcome, uncached->outcome) << "cold cached run differs";
  auto warm = CheckContainment(q1, q2, options);
  EXPECT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->outcome, uncached->outcome) << "warm cached run differs";
  // A query renamed apart is the same OMQ; it must reuse the entries the
  // cold run inserted (a refuted run whose RHS chases inserts none: its
  // stopped enumeration is not cached).
  auto renamed = CheckContainment(RenamedQuery(q1, "LC_"),
                                  RenamedQuery(q2, "RC_"), options);
  EXPECT_TRUE(renamed.ok()) << renamed.status().ToString();
  EXPECT_EQ(renamed->outcome, uncached->outcome)
      << "renamed cached run differs";
  if (cold->stats.cache.insertions > 0) {
    EXPECT_GT(renamed->stats.cache.hits, 0u)
        << "renamed run failed to hit the cache";
  }
  return *warm;
}

TEST(CacheIntegrationTest, ContainmentOutcomesMatchAcrossModes) {
  OmqCache cache;
  const char kSigma[] =
      "Edge(X,Y) -> Conn(X,Y). Conn(X,Y), Conn(Y,Z) -> Reach(X,Z).";
  Schema schema = S({{"Edge", 2}, {"Conn", 2}, {"Reach", 2}});
  Omq chain2 = MakeOmq(schema, kSigma,
                       "Q(X) :- Conn(X,Y), Conn(Y,Z)");
  Omq chain1 = MakeOmq(schema, kSigma, "Q(X) :- Conn(X,Y)");
  Omq reach = MakeOmq(schema, kSigma, "Q(X) :- Reach(X,Y)");

  ContainmentResult contained = CheckAllModes(chain2, chain1, &cache);
  EXPECT_EQ(contained.outcome, ContainmentOutcome::kContained);
  ContainmentResult refuted = CheckAllModes(chain1, chain2, &cache);
  EXPECT_EQ(refuted.outcome, ContainmentOutcome::kNotContained);
  CheckAllModes(chain2, reach, &cache);
  EXPECT_GT(cache.Stats().counters.hits, 0u);
}

TEST(CacheIntegrationTest, RecursiveLinearRhsUsesCachedRewriting) {
  // Genuinely recursive linear RHS: the evaluator precomputes a rewriting,
  // which the cache shares across the repeated and renamed runs.
  OmqCache cache;
  const char kSigma[] = "A(X) -> B(X). B(X) -> Succ(X,Y), A(Y).";
  Schema schema = S({{"A", 1}, {"Succ", 2}});
  Omq q1 = MakeOmq(schema, kSigma, "Q(X) :- A(X), B(X)");
  Omq q2 = MakeOmq(schema, kSigma, "Q(X) :- B(X)");
  ContainmentResult warm = CheckAllModes(q1, q2, &cache);
  EXPECT_EQ(warm.outcome, ContainmentOutcome::kContained);
  EXPECT_GT(warm.stats.cache.hits, 0u);
}

TEST(CacheIntegrationTest, RandomSweepAgreesOnEveryPair) {
  OmqCache cache;
  std::vector<Omq> omqs;
  for (uint32_t seed = 0; seed < 4; ++seed) {
    RandomOmqConfig config;
    config.target = TgdClass::kLinear;
    config.seed = seed;
    config.num_predicates = 3;
    config.query_atoms = 2;
    omqs.push_back(MakeRandomOmq(config));
  }
  ContainmentOptions options;
  for (const Omq& q1 : omqs) {
    for (const Omq& q2 : omqs) {
      if (q1.data_schema.size() != q2.data_schema.size()) continue;
      ContainmentOptions uncached = options;
      auto base = CheckContainment(q1, q2, uncached);
      ContainmentOptions cached = options;
      cached.cache = &cache;
      auto with_cache = CheckContainment(q1, q2, cached);
      ASSERT_EQ(base.ok(), with_cache.ok());
      if (!base.ok()) continue;  // schema mismatch pairs etc.
      EXPECT_EQ(base->outcome, with_cache->outcome)
          << q1.query.ToString() << " vs " << q2.query.ToString();
    }
  }
}

TEST(CacheEvalTest, EvalAnswersIdenticalWithAndWithoutCache) {
  OmqCache cache;
  // Recursive linear ontology forces the rewriting path in EvalAll.
  const char kSigma[] = "A(X) -> B(X). B(X) -> Succ(X,Y), A(Y).";
  Schema schema = S({{"A", 1}, {"B", 1}, {"Succ", 2}});
  Omq omq = MakeOmq(schema, kSigma, "Q(X) :- B(X)");
  Database db;
  db.Add(Atom::Make("A", {Term::Constant("a")}));
  db.Add(Atom::Make("B", {Term::Constant("b")}));

  EvalOptions plain;
  auto base = EvalAll(omq, db, plain);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  EvalOptions with_cache;
  with_cache.cache = &cache;
  EngineStats cold_stats;
  auto cold = EvalAll(omq, db, with_cache, &cold_stats);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(Sorted(*base), Sorted(*cold));
  EXPECT_GT(cold_stats.cache.insertions, 0u);

  EngineStats warm_stats;
  auto warm = EvalAll(omq, db, with_cache, &warm_stats);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(Sorted(*base), Sorted(*warm));
  EXPECT_GT(warm_stats.cache.hits, 0u);
  // The warm run recompiled nothing.
  EXPECT_EQ(warm_stats.rewrite.queries_generated, 0u);

  // A renamed query is the same OMQ and must hit the same entries.
  EngineStats renamed_stats;
  auto renamed = EvalAll(RenamedQuery(omq, "RN_"), db, with_cache,
                         &renamed_stats);
  ASSERT_TRUE(renamed.ok());
  EXPECT_EQ(Sorted(*base), Sorted(*renamed));
  EXPECT_GT(renamed_stats.cache.hits, 0u);
  EXPECT_EQ(renamed_stats.rewrite.queries_generated, 0u);
}

TEST(CacheEvalTest, TrippedGovernorRunsAreNotCached) {
  // A governor-tripped CachedXRewrite must not poison the cache: the next
  // ungoverned run over the same key must recompute and saturate, and a
  // warm ungoverned entry must keep serving hits after a later run trips.
  OmqCache cache;
  const char kSigma[] = "A(X) -> B(X). B(X) -> Succ(X,Y), A(Y).";
  Schema schema = S({{"A", 1}, {"B", 1}, {"Succ", 2}});
  Omq omq = MakeOmq(schema, kSigma, "Q(X) :- B(X)");
  Database db;
  db.Add(Atom::Make("A", {Term::Constant("a")}));

  // 1. Tripped run first: the governor is cancelled before we start.
  ResourceGovernor tripped;
  tripped.Cancel();
  EvalOptions governed;
  governed.cache = &cache;
  governed.governor = &tripped;
  auto failed = EvalAll(omq, db, governed);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kCancelled);
  // The tgd classification may be cached (it completed and is exact); the
  // truncated rewriting must NOT be. The proof is in step 2: the
  // ungoverned run still has to generate the rewriting from scratch — a
  // poisoned entry would make queries_generated 0 — and it saturates.
  EXPECT_LE(cache.size(), 1u);

  // 2. Ungoverned run over the same key: recomputes, saturates, caches.
  EvalOptions plain;
  plain.cache = &cache;
  EngineStats cold_stats;
  auto base = EvalAll(omq, db, plain, &cold_stats);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_GT(cold_stats.rewrite.queries_generated, 0u)
      << "the tripped run poisoned the rewriting cache entry";
  EXPECT_GT(cold_stats.cache.insertions, 0u);

  // 3. A later tripped run must neither evict nor corrupt the entry...
  ResourceGovernor tripped_again;
  tripped_again.Cancel();
  governed.governor = &tripped_again;
  auto failed_again = EvalAll(omq, db, governed);
  // (A warm hit needs no rewriting work, so the run may succeed outright
  // before any governed check; either way the entry must survive.)
  if (!failed_again.ok()) {
    EXPECT_EQ(failed_again.status().code(), StatusCode::kCancelled);
  }

  // 4. ...and the warm ungoverned run still hits and agrees.
  EngineStats warm_stats;
  auto warm = EvalAll(omq, db, plain, &warm_stats);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(Sorted(*base), Sorted(*warm));
  EXPECT_GT(warm_stats.cache.hits, 0u);
  EXPECT_EQ(warm_stats.rewrite.queries_generated, 0u);
}

TEST(CacheEvalTest, GovernedChaseStatusIgnoresCacheTemperature) {
  // A 300-edge chain under a datalog rule: the chase derives A along the
  // whole chain. Under a memory budget, a request must get the same
  // status whether it chases cold or hits a chase some unbudgeted request
  // cached.
  Schema schema = S({{"R", 2}, {"A", 1}});
  Omq omq = MakeOmq(schema, "R(X,Y), A(Y) -> A(X).", "Q(X) :- A(X)");
  Database db;
  const int kEdges = 300;
  for (int i = 0; i < kEdges; ++i) {
    db.Add(Atom::Make("R", {Term::Constant(StrCat("c", i)),
                            Term::Constant(StrCat("c", i + 1))}));
  }
  db.Add(Atom::Make("A", {Term::Constant(StrCat("c", kEdges))}));

  // budget_bytes 0 = unbudgeted.
  auto governed_eval = [&](OmqCache& cache, size_t budget_bytes,
                           EngineStats* stats) {
    ResourceGovernor governor;
    governor.set_memory_budget(budget_bytes);
    EvalOptions options;
    options.cache = &cache;
    options.governor = &governor;
    return EvalAll(omq, db, options, stats);
  };

  // The saturated chase grows the instance by more than 8 KiB: the two
  // small budgets trip, the large one does not.
  const std::pair<size_t, bool> kBudgets[] = {
      {size_t{1} << 10, false}, {size_t{8} << 10, false},
      {size_t{16} << 20, true}};
  for (const auto& [budget, fits] : kBudgets) {
    const std::string context = StrCat("budget=", budget);
    OmqCache cold_cache;
    auto cold = governed_eval(cold_cache, budget, nullptr);
    ASSERT_EQ(cold.ok(), fits) << context << ": " << cold.status().ToString();

    OmqCache warm_cache;
    auto warmer = governed_eval(warm_cache, /*budget_bytes=*/0, nullptr);
    ASSERT_TRUE(warmer.ok()) << warmer.status().ToString();
    ASSERT_EQ(warmer->size(), static_cast<size_t>(kEdges + 1));
    EngineStats warm_stats;
    auto warm = governed_eval(warm_cache, budget, &warm_stats);
    EXPECT_GT(warm_stats.cache.hits, 0u) << context;

    ASSERT_EQ(cold.ok(), warm.ok())
        << context << ": cold " << cold.status().ToString() << " vs warm "
        << warm.status().ToString();
    if (cold.ok()) {
      EXPECT_EQ(Sorted(*cold), Sorted(*warm)) << context;
      EXPECT_EQ(cold->size(), static_cast<size_t>(kEdges + 1)) << context;
    } else {
      EXPECT_EQ(cold.status().code(), StatusCode::kResourceExhausted)
          << context;
      EXPECT_EQ(warm.status().code(), cold.status().code()) << context;
    }
  }
}

TEST(CacheEvalTest, DifferentBudgetsNeverAlias) {
  OmqCache cache;
  const char kSigma[] = "A(X) -> B(X). B(X) -> Succ(X,Y), A(Y).";
  Schema schema = S({{"A", 1}, {"B", 1}, {"Succ", 2}});
  Omq omq = MakeOmq(schema, kSigma, "Q(X) :- B(X)");
  Database db;
  db.Add(Atom::Make("A", {Term::Constant("a")}));

  EvalOptions first;
  first.cache = &cache;
  ASSERT_TRUE(EvalAll(omq, db, first).ok());

  // Same OMQ under different rewriting budgets: must not reuse the entry
  // (its key embeds the options digest), so a fresh insertion happens.
  EvalOptions second = first;
  second.rewrite.max_queries = first.rewrite.max_queries - 1;
  EngineStats stats;
  ASSERT_TRUE(EvalAll(omq, db, second, &stats).ok());
  EXPECT_GT(stats.cache.insertions, 0u);
}

}  // namespace
}  // namespace omqc
