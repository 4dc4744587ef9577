// Tests for the chase engine (Sec. 2 "Tgds and the chase procedure").
//
// Every behavioral fixture runs as a TEST_P sweep over both trigger-
// enumeration strategies (kNaive, kSemiNaive): the strategies must be
// observably identical — same certain answers, steps, atoms_per_level and
// completeness — differing only in how many triggers they enumerate.
// ChaseEquivalenceTest additionally cross-validates the two engines on
// randomized OMQ families from src/generators.

#include <gtest/gtest.h>

#include <random>

#include "chase/chase.h"
#include "generators/families.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

Database Db(const std::string& text) { return ParseDatabase(text).value(); }
TgdSet Tgds(const std::string& text) { return ParseTgds(text).value(); }
ConjunctiveQuery Q(const std::string& text) {
  return ParseQuery(text).value();
}

class ChaseStrategyTest : public ::testing::TestWithParam<ChaseStrategy> {
 protected:
  ChaseOptions Opts() const {
    ChaseOptions options;
    options.strategy = GetParam();
    return options;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Strategies, ChaseStrategyTest,
    ::testing::Values(ChaseStrategy::kNaive, ChaseStrategy::kSemiNaive),
    [](const ::testing::TestParamInfo<ChaseStrategy>& info) {
      return info.param == ChaseStrategy::kNaive ? "Naive" : "SemiNaive";
    });

TEST_P(ChaseStrategyTest, SingleStepCreatesNull) {
  ChaseResult result =
      Chase(Db("P(a)."), Tgds("P(X) -> R(X,Y)."), Opts()).value();
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.instance.size(), 2u);
  EXPECT_EQ(result.steps, 1u);
  // The new atom holds a fresh null in the second position.
  bool found = false;
  for (AtomId id : result.instance.IdsWith(Predicate::Get("R", 2))) {
    AtomView a = result.instance.view(id);
    EXPECT_EQ(a.arg(0), Term::Constant("a"));
    EXPECT_TRUE(a.arg(1).IsNull());
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST_P(ChaseStrategyTest, RepeatedChasesAreIdentical) {
  // Nulls are numbered per run: the same input gives the same instance,
  // null ids and "_:n<id>" text included.
  Database db = Db("P(a). P(b). R(a,b).");
  TgdSet tgds = Tgds("P(X) -> R(X,Y). R(X,Y) -> S(Y,Z).");
  ChaseResult first = Chase(db, tgds, Opts()).value();
  ChaseResult second = Chase(db, tgds, Opts()).value();
  EXPECT_TRUE(first.instance == second.instance);
  EXPECT_EQ(first.instance.ToString(), second.instance.ToString());
}

TEST_P(ChaseStrategyTest, NewNullsStartAboveInputNulls) {
  const int32_t k = 1000000;
  Instance input;
  input.Add(Atom::Make("P", {Term::NullWithId(k)}));
  input.Add(Atom::Make("P", {Term::Constant("a")}));
  ChaseResult result =
      Chase(input, Tgds("P(X) -> R(X,Y)."), Opts()).value();
  EXPECT_EQ(result.instance.size(), 4u);
  for (AtomId id : result.instance.IdsWith(Predicate::Get("R", 2))) {
    AtomView a = result.instance.view(id);
    ASSERT_TRUE(a.arg(1).IsNull());
    EXPECT_GT(a.arg(1).id(), k);
  }
}

TEST_P(ChaseStrategyTest, RestrictedChaseSkipsSatisfiedHeads) {
  // R(a,b) already satisfies the head for X=a.
  ChaseResult result =
      Chase(Db("P(a). R(a,b)."), Tgds("P(X) -> R(X,Y)."), Opts()).value();
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.steps, 0u);
  EXPECT_EQ(result.instance.size(), 2u);
}

TEST_P(ChaseStrategyTest, ObliviousChaseFiresAnyway) {
  ChaseOptions options = Opts();
  options.variant = ChaseVariant::kOblivious;
  ChaseResult result =
      Chase(Db("P(a). R(a,b)."), Tgds("P(X) -> R(X,Y)."), options).value();
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.steps, 1u);
  EXPECT_EQ(result.instance.size(), 3u);
}

TEST_P(ChaseStrategyTest, FactTgdsFireOnEmptyDatabase) {
  ChaseResult result =
      Chase(Database{}, Tgds("-> Tile(X). Tile(X) -> Good(X)."), Opts())
          .value();
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.instance.size(), 2u);
}

TEST_P(ChaseStrategyTest, MultiHeadAtomsShareNulls) {
  ChaseResult result =
      Chase(Db("A(a)."), Tgds("A(X) -> R(X,Y), P(Y)."), Opts()).value();
  EXPECT_TRUE(result.complete);
  // R(a,n) and P(n) with the same null n.
  Term null_in_r, null_in_p;
  for (AtomId id : result.instance.IdsWith(Predicate::Get("R", 2))) {
    null_in_r = result.instance.view(id).arg(1);
  }
  for (AtomId id : result.instance.IdsWith(Predicate::Get("P", 1))) {
    null_in_p = result.instance.view(id).arg(0);
  }
  EXPECT_TRUE(null_in_r.IsNull());
  EXPECT_EQ(null_in_r, null_in_p);
}

TEST_P(ChaseStrategyTest, NonRecursiveChaseTerminates) {
  TgdSet tgds = Tgds(
      "R(X,Y) -> S(Y,Z)."
      "S(X,Y) -> T(X,Y)."
      "T(X,Y), S(X,Y) -> U(X).");
  ChaseResult result = Chase(Db("R(a,b). R(b,c)."), tgds, Opts()).value();
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.instance.size(), 4u);
}

TEST_P(ChaseStrategyTest, LevelBudgetTruncatesInfiniteChase) {
  // Linear recursive: infinite chase.
  ChaseOptions options = Opts();
  options.max_level = 4;
  ChaseResult result =
      Chase(Db("P(a)."), Tgds("P(X) -> R(X,Y). R(X,Y) -> P(Y)."), options)
          .value();
  EXPECT_FALSE(result.complete);
  EXPECT_LE(result.max_level_reached, 4);
  EXPECT_GE(result.instance.size(), 5u);
}

TEST_P(ChaseStrategyTest, AtomBudgetStopsEarly) {
  ChaseOptions options = Opts();
  options.max_atoms = 10;
  ChaseResult result =
      Chase(Db("P(a)."), Tgds("P(X) -> R(X,Y), P(Y)."), options).value();
  EXPECT_FALSE(result.complete);
  EXPECT_LE(result.instance.size(), 12u);
}

TEST_P(ChaseStrategyTest, RestrictedChaseOfUnconstrainedHeadTerminates) {
  // ∃Y P(Y) is satisfied by any P atom: the restricted chase of
  // P(X) -> P(Y) stops immediately (the oblivious one would not).
  ChaseResult result =
      Chase(Db("P(a)."), Tgds("P(X) -> P(Y)."), Opts()).value();
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.steps, 0u);
}

TEST_P(ChaseStrategyTest, LevelsTrackDerivationDepth) {
  ChaseResult result =
      Chase(Db("A(a)."), Tgds("A(X) -> B(X). B(X) -> C(X). C(X) -> D(X)."),
            Opts())
          .value();
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.max_level_reached, 3);
  ASSERT_EQ(result.atoms_per_level.size(), 4u);
  EXPECT_EQ(result.atoms_per_level[0], 1u);
  EXPECT_EQ(result.atoms_per_level[3], 1u);
}

TEST_P(ChaseStrategyTest, ConstantInTgdHead) {
  ChaseResult result =
      Chase(Db("P(a)."), Tgds("P(X) -> R(X,c)."), Opts()).value();
  EXPECT_TRUE(result.instance.Contains(
      Atom::Make("R", {Term::Constant("a"), Term::Constant("c")})));
}

TEST_P(ChaseStrategyTest, ConstantInTgdBodyPinsDeltaScans) {
  // The recursive body atom C(Y,hub) carries a constant, so the
  // semi-naive delta scan runs over the by-arg postings of `hub` and the
  // derived C(.,noise) atoms never enter the pinned enumeration. Both
  // strategies must reach the same closure.
  ChaseResult result =
      Chase(Db("E(a,b). E(b,c). C(c,hub). C(c,noise)."),
            Tgds("E(X,Y), C(Y,hub) -> C(X,hub). C(X,hub) -> C(X,noise)."),
            Opts())
          .value();
  EXPECT_TRUE(result.complete);
  for (const char* x : {"a", "b", "c"}) {
    EXPECT_TRUE(result.instance.Contains(
        Atom::Make("C", {Term::Constant(x), Term::Constant("hub")})))
        << x;
    EXPECT_TRUE(result.instance.Contains(
        Atom::Make("C", {Term::Constant(x), Term::Constant("noise")})))
        << x;
  }
  EXPECT_EQ(result.instance.size(), 8u);
}

TEST_P(ChaseStrategyTest, ProvenanceRecordsPremises) {
  ChaseOptions options = Opts();
  options.track_provenance = true;
  ChaseResult result =
      Chase(Db("A(a)."), Tgds("A(X) -> B(X). B(X) -> C(X)."), options)
          .value();
  ASSERT_TRUE(result.complete);
  Atom c = Atom::Make("C", {Term::Constant("a")});
  const ChaseResult::Provenance* why = result.ProvenanceOf(c);
  ASSERT_NE(why, nullptr);
  EXPECT_EQ(why->tgd_index, 1u);
  ASSERT_EQ(why->premise_ids.size(), 1u);
  EXPECT_EQ(result.instance.MaterializeAtom(why->premise_ids[0]),
            Atom::Make("B", {Term::Constant("a")}));
}

TEST_P(ChaseStrategyTest, ViaChase) {
  ChaseOptions options = Opts();
  auto answers = CertainAnswersViaChase(Q("Q(X) :- S(X,Y)"),
                                        Db("R(a,b)."),
                                        Tgds("R(X,Y) -> S(Y,Z)."), options);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_EQ((*answers)[0][0], Term::Constant("b"));
}

TEST_P(ChaseStrategyTest, BudgetExhaustionIsAnError) {
  ChaseOptions options = Opts();
  options.max_level = 3;
  auto answers = CertainAnswersViaChase(
      Q("Q() :- Unreachable(X)"), Db("P(a)."),
      Tgds("P(X) -> R(X,Y). R(X,Y) -> P(Y)."), options);
  EXPECT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
}

TEST_P(ChaseStrategyTest, CertainAnswerSemanticsMatchPaperExample) {
  // cert(q, D, Σ) = q(chase(D, Σ)): nulls witness existentials but are
  // never answers.
  TgdSet tgds =
      Tgds("Person(X) -> HasParent(X,Y). HasParent(X,Y) -> Person(Y).");
  ChaseOptions options = Opts();
  options.max_level = 6;
  ChaseResult result = Chase(Db("Person(alice)."), tgds, options).value();
  auto people = EvaluateCQ(Q("Q(X) :- Person(X)"), result.instance);
  ASSERT_EQ(people.size(), 1u);  // alice; ancestors are nulls
  auto has_parent = EvaluateCQ(Q("Q() :- HasParent(X,Y)"), result.instance);
  EXPECT_EQ(has_parent.size(), 1u);
}

TEST(ChaseCountersTest, SemiNaiveEnumeratesFewerTriggersOnMultiRound) {
  // Transitive closure over a chain needs one fixpoint round per hop; the
  // naive engine re-enumerates every old trigger each round.
  Database db;
  for (int i = 0; i < 8; ++i) {
    db.Add(Atom::Make("E", {Term::Constant("c" + std::to_string(i)),
                            Term::Constant("c" + std::to_string(i + 1))}));
  }
  TgdSet tgds = Tgds("E(X,Y) -> T(X,Y). T(X,Y), E(Y,Z) -> T(X,Z).");
  ChaseOptions naive;
  naive.strategy = ChaseStrategy::kNaive;
  ChaseOptions semi;
  semi.strategy = ChaseStrategy::kSemiNaive;
  ChaseResult n = Chase(db, tgds, naive).value();
  ChaseResult s = Chase(db, tgds, semi).value();
  ASSERT_TRUE(n.complete);
  ASSERT_TRUE(s.complete);
  EXPECT_EQ(n.steps, s.steps);
  EXPECT_EQ(n.instance, s.instance);  // full tgds: no nulls, exact match
  EXPECT_EQ(n.atoms_per_level, s.atoms_per_level);
  EXPECT_GT(n.rounds, 2u);
  EXPECT_LT(s.triggers_enumerated, n.triggers_enumerated);
  // Semi-naive never re-discovers an old trigger: every enumerated
  // trigger is either fresh or a multi-decomposition duplicate.
  EXPECT_GT(n.redundant_triggers_skipped, 0u);
  EXPECT_EQ(s.redundant_triggers_skipped, 0u);
}

// ---------- Randomized strategy-equivalence sweep. ----------

/// A deterministic random database over the given predicates (mirrors the
/// helper in property_test.cc).
Database RandomDatabase(const Schema& schema, int domain_size, int facts,
                        uint32_t seed) {
  std::mt19937 rng(seed);
  Database db;
  std::vector<Predicate> preds(schema.predicates().begin(),
                               schema.predicates().end());
  for (int i = 0; i < facts && !preds.empty(); ++i) {
    const Predicate& p =
        preds[rng() % static_cast<uint32_t>(preds.size())];
    std::vector<Term> args;
    for (int j = 0; j < p.arity(); ++j) {
      args.push_back(Term::Constant(
          "d" + std::to_string(rng() % static_cast<uint32_t>(domain_size))));
    }
    db.Add(Atom(p, std::move(args)));
  }
  return db;
}

class ChaseEquivalenceTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  /// Chases `db` under both strategies and asserts identical observable
  /// results: completeness, steps, atoms_per_level, instance size and the
  /// certain answers of `query`.
  void ExpectStrategiesAgree(const Database& db, const TgdSet& tgds,
                             const ConjunctiveQuery& query,
                             ChaseOptions base) {
    base.strategy = ChaseStrategy::kNaive;
    ChaseResult naive = Chase(db, tgds, base).value();
    base.strategy = ChaseStrategy::kSemiNaive;
    ChaseResult semi = Chase(db, tgds, base).value();
    EXPECT_EQ(naive.complete, semi.complete);
    EXPECT_EQ(naive.steps, semi.steps);
    EXPECT_EQ(naive.max_level_reached, semi.max_level_reached);
    EXPECT_EQ(naive.atoms_per_level, semi.atoms_per_level);
    EXPECT_EQ(naive.instance.size(), semi.instance.size());
    EXPECT_EQ(EvaluateCQ(query, naive.instance),
              EvaluateCQ(query, semi.instance));
  }
};

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseEquivalenceTest,
                         ::testing::Range(1u, 51u));

TEST_P(ChaseEquivalenceTest, NonRecursiveRestricted) {
  RandomOmqConfig config;
  config.target = TgdClass::kNonRecursive;
  config.seed = GetParam();
  Omq q = MakeRandomOmq(config);
  Database db = RandomDatabase(q.data_schema, 3, 10, GetParam() * 7 + 1);
  ExpectStrategiesAgree(db, q.tgds, q.query, ChaseOptions());
}

TEST_P(ChaseEquivalenceTest, NonRecursiveOblivious) {
  RandomOmqConfig config;
  config.target = TgdClass::kNonRecursive;
  config.seed = GetParam();
  Omq q = MakeRandomOmq(config);
  Database db = RandomDatabase(q.data_schema, 3, 8, GetParam() * 13 + 2);
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  ExpectStrategiesAgree(db, q.tgds, q.query, options);
}

TEST_P(ChaseEquivalenceTest, FullRestricted) {
  RandomOmqConfig config;
  config.target = TgdClass::kFull;
  config.seed = GetParam();
  Omq q = MakeRandomOmq(config);
  Database db = RandomDatabase(q.data_schema, 3, 12, GetParam() * 3 + 5);
  ExpectStrategiesAgree(db, q.tgds, q.query, ChaseOptions());
}

TEST_P(ChaseEquivalenceTest, LinearWithLevelBudget) {
  RandomOmqConfig config;
  config.target = TgdClass::kLinear;
  config.seed = GetParam();
  Omq q = MakeRandomOmq(config);
  Database db = RandomDatabase(q.data_schema, 4, 10, GetParam() * 17 + 3);
  ChaseOptions options;
  options.max_level = 8;  // linear sets may not terminate
  ExpectStrategiesAgree(db, q.tgds, q.query, options);
}

TEST_P(ChaseEquivalenceTest, EliChainOntology) {
  TgdSet tgds = MakeEliChainOntology(3 + static_cast<int>(GetParam() % 3));
  Database db = MakeChainDatabase(4 + static_cast<int>(GetParam() % 4));
  db.Add(Atom::Make("A0", {Term::Constant("c0")}));
  ChaseOptions options;
  options.max_level = 6;  // guarded: chase may be infinite
  ExpectStrategiesAgree(db, tgds, Q("Q(X) :- A0(X)"), options);
}

}  // namespace
}  // namespace omqc
