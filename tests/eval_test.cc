// Tests for OMQ evaluation (Sec. 2, Props. 1-4 behaviours).

#include <gtest/gtest.h>

#include "core/eval.h"
#include "logic/homomorphism.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

Omq MakeOmq(const std::string& tgds, const std::string& query,
            std::initializer_list<std::pair<const char*, int>> schema) {
  Schema s;
  for (const auto& [name, arity] : schema) {
    s.Add(Predicate::Get(name, arity));
  }
  return Omq{s, ParseTgds(tgds).value(), ParseQuery(query).value()};
}

Database Db(const std::string& text) { return ParseDatabase(text).value(); }

TEST(EvalTest, EmptyOntologyIsPlainEvaluation) {
  Omq q = MakeOmq("", "Q(X) :- R(X,Y)", {{"R", 2}});
  auto answers = EvalAll(q, Db("R(a,b)."));
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 1u);
}

TEST(EvalTest, LinearOntologyViaRewriting) {
  Omq q = MakeOmq(
      "P(X) -> R(X,Y). R(X,Y) -> P(Y). T(X) -> P(X).",
      "Q(X) :- R(X,Y), P(Y)", {{"P", 1}, {"T", 1}});
  auto answers = EvalAll(q, Db("T(a). P(b)."));
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 2u);
}

TEST(EvalTest, RewriteAndChaseAgreeOnLinear) {
  // Linear and non-recursive: EvalAll chases. The rewriting path is
  // exercised directly (XRewrite + EvaluateUCQ) as the oracle.
  Omq q = MakeOmq("A(X) -> R(X,Y). R(X,Y) -> B(Y).",
                  "Q(X) :- R(X,Y)", {{"A", 1}, {"R", 2}});
  Database db = Db("A(a). R(b,c).");
  auto rewriting = XRewrite(q.data_schema, q.tgds, q.query);
  ASSERT_TRUE(rewriting.ok());
  ChaseOptions chase_options;
  chase_options.max_level = 10;
  auto via_chase = CertainAnswersViaChase(q.query, db, q.tgds, chase_options);
  auto via_eval = EvalAll(q, db);
  ASSERT_TRUE(via_chase.ok());
  ASSERT_TRUE(via_eval.ok());
  EXPECT_EQ(EvaluateUCQ(*rewriting, db), *via_chase);
  EXPECT_EQ(*via_eval, *via_chase);
  EXPECT_EQ(via_eval->size(), 2u);
}

TEST(EvalTest, PlainUcqIsMatchedWithoutAChase) {
  UcqOmq q{Schema(), TgdSet(),
           UnionOfCQs({ParseQuery("Q(X) :- R(X,Y)").value(),
                       ParseQuery("Q(X) :- S(X)").value()})};
  q.data_schema.Add(Predicate::Get("R", 2));
  q.data_schema.Add(Predicate::Get("S", 1));
  EngineStats stats;
  auto evaluator = OmqEvaluator::Prepare(q, EvalOptions(), &stats);
  ASSERT_TRUE(evaluator.ok());
  Database db = Db("R(a,b). S(c).");
  auto answers = evaluator->Answers(db, &stats);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 2u);
  auto has_c = evaluator->Contains(db, {Term::Constant("c")}, &stats);
  ASSERT_TRUE(has_c.ok());
  EXPECT_TRUE(*has_c);
  auto has_b = evaluator->Contains(db, {Term::Constant("b")}, &stats);
  ASSERT_TRUE(has_b.ok());
  EXPECT_FALSE(*has_b);
  EXPECT_EQ(stats.chase_delta_rounds, 0u);
}

TEST(EvalTest, UcqMembershipIgnoresDisjunctOrderOnATruncatedChase) {
  // Guarded, infinite chase: S(X) never matches, so only a truncated chase
  // can refute it; R(X,Y) matches the database. Either order answers true.
  const ConjunctiveQuery s = ParseQuery("Q() :- S(X)").value();
  const ConjunctiveQuery r = ParseQuery("Q() :- R(X,Y)").value();
  for (const UnionOfCQs& ucq : {UnionOfCQs({s, r}), UnionOfCQs({r, s})}) {
    const std::string order = ucq.disjuncts.front().ToString();
    UcqOmq q{Schema(), ParseTgds("A(X), C(X) -> R(X,Y), A(Y), C(Y).").value(),
             ucq};
    for (const char* p : {"A", "C", "S"}) {
      q.data_schema.Add(Predicate::Get(p, 1));
    }
    EvalOptions options;
    options.chase_max_level = 3;
    auto evaluator = OmqEvaluator::Prepare(q, options);
    ASSERT_TRUE(evaluator.ok()) << order;
    auto result = evaluator->Contains(Db("A(a). C(a)."), {});
    ASSERT_TRUE(result.ok()) << order << ": " << result.status().ToString();
    EXPECT_TRUE(*result) << order;
  }
}

TEST(EvalTest, NonRecursiveViaChase) {
  Omq q = MakeOmq(
      "R(X,Y), R(Y,Z) -> Tri(X,Z). Tri(X,Z) -> Out(X).",
      "Q(X) :- Out(X)", {{"R", 2}});
  auto answers = EvalAll(q, Db("R(a,b). R(b,c)."));
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_EQ((*answers)[0][0], Term::Constant("a"));
}

TEST(EvalTest, GuardedPositiveWithinBudget) {
  Omq q = MakeOmq(
      "R(X,Y), A(Y) -> A(X).",
      "Q(X) :- A(X)", {{"R", 2}, {"A", 1}});
  auto has_a = EvalTuple(q, Db("R(a,b). R(b,c). A(c)."),
                         {Term::Constant("a")});
  ASSERT_TRUE(has_a.ok());
  EXPECT_TRUE(*has_a);
}

TEST(EvalTest, GuardedNegativeWithCompleteChase) {
  Omq q = MakeOmq("R(X,Y), A(Y) -> A(X).", "Q(X) :- A(X)",
                  {{"R", 2}, {"A", 1}});
  // Full tgds: the chase terminates, so negatives are certified.
  auto not_a = EvalTuple(q, Db("R(a,b). A(a)."), {Term::Constant("b")});
  ASSERT_TRUE(not_a.ok());
  EXPECT_FALSE(*not_a);
}

TEST(EvalTest, GuardedInfiniteChaseNegativeHitsBudget) {
  // A(x) ∧ C(x) → ∃y (r(x,y) ∧ A(y) ∧ C(y)): guarded (not linear, not
  // sticky, recursive), infinite chase; the query never matches, so the
  // budgeted chase cannot certify the negative answer.
  Omq q = MakeOmq("A(X), C(X) -> R(X,Y), A(Y), C(Y).", "Q() :- B(X)",
                  {{"A", 1}, {"C", 1}, {"B", 1}});
  ASSERT_EQ(q.OntologyClass(), TgdClass::kGuarded);
  EvalOptions options;
  options.chase_max_level = 4;
  auto result = EvalTuple(q, Db("A(a). C(a)."), {}, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvalTest, GuardedInfiniteChasePositiveIsSound) {
  Omq q = MakeOmq("A(X), C(X) -> R(X,Y), A(Y), C(Y).",
                  "Q() :- R(X,Y), R(Y,Z)", {{"A", 1}, {"C", 1}});
  EvalOptions options;
  options.chase_max_level = 5;
  auto result = EvalTuple(q, Db("A(a). C(a)."), {}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(*result);
}

TEST(EvalTest, RejectsDatabaseOutsideSchema) {
  Omq q = MakeOmq("", "Q(X) :- R(X,Y)", {{"R", 2}});
  auto answers = EvalAll(q, Db("Other(a)."));
  EXPECT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvalTest, RejectsArityMismatch) {
  Omq q = MakeOmq("", "Q(X) :- R(X,Y)", {{"R", 2}});
  auto result = EvalTuple(q, Db("R(a,b)."), {});
  EXPECT_FALSE(result.ok());
}

TEST(EvalTest, BooleanConvenience) {
  Omq q = MakeOmq("R(X,Y) -> P(Y).", "Q() :- P(X)", {{"R", 2}});
  auto result = EvalBoolean(q, Db("R(a,b)."));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result);
  Omq non_boolean = MakeOmq("", "Q(X) :- R(X,Y)", {{"R", 2}});
  EXPECT_FALSE(EvalBoolean(non_boolean, Db("R(a,b).")).ok());
}

TEST(EvalTest, StickyOntologyViaRewriting) {
  Omq q = MakeOmq(
      "R(X,Y), P(X,Z) -> T(X,Y,Z).",
      "Q(X) :- T(X,Y,Z)", {{"R", 2}, {"P", 2}});
  auto answers = EvalAll(q, Db("R(a,b). P(a,c). R(d,e)."));
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_EQ((*answers)[0][0], Term::Constant("a"));
}

TEST(EvalTest, TupleWithConstantsInQueryAnswer) {
  Omq q = MakeOmq("S(X,Y) -> Ans(X,Y).", "Q() :- Ans('0','1')",
                  {{"S", 2}});
  auto yes = EvalTuple(q, Db("S('0','1')."), {});
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  auto no = EvalTuple(q, Db("S('1','0')."), {});
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
}

}  // namespace
}  // namespace omqc
