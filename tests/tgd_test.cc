// Unit tests for the Tgd/TgdSet types and the Omq wrapper.

#include <gtest/gtest.h>

#include "core/omq.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

Tgd T(const std::string& text) { return ParseTgd(text).value(); }

TEST(TgdTest, VariableClassification) {
  Tgd tgd = T("R(X,Y), P(Y,Z) -> S(X,W), U(W,Z)");
  EXPECT_EQ(tgd.BodyVariables().size(), 3u);   // X Y Z
  EXPECT_EQ(tgd.HeadVariables().size(), 3u);   // X W Z
  std::vector<Term> frontier = tgd.FrontierVariables();
  ASSERT_EQ(frontier.size(), 2u);              // X Z
  std::vector<Term> existential = tgd.ExistentialVariables();
  ASSERT_EQ(existential.size(), 1u);           // W
  EXPECT_EQ(existential[0], Term::Variable("W"));
}

TEST(TgdTest, FactTgd) {
  Tgd tgd = T("-> Tile(X)");
  EXPECT_TRUE(tgd.body.empty());
  EXPECT_TRUE(tgd.BodyVariables().empty());
  EXPECT_EQ(tgd.ExistentialVariables().size(), 1u);
}

TEST(TgdTest, ConstantsCollected) {
  Tgd tgd = T("R(X,a) -> S(X,b)");
  EXPECT_EQ(tgd.Constants().size(), 2u);
}

TEST(TgdTest, RenamedApartIsDisjoint) {
  Tgd tgd = T("R(X,Y) -> S(Y,Z)");
  Tgd renamed = tgd.RenamedApart(7);
  for (const Term& v : renamed.BodyVariables()) {
    EXPECT_NE(v, Term::Variable("X"));
    EXPECT_NE(v, Term::Variable("Y"));
  }
  // Structure is preserved.
  EXPECT_EQ(renamed.body.size(), 1u);
  EXPECT_EQ(renamed.ExistentialVariables().size(), 1u);
}

TEST(TgdTest, ValidateRejectsEmptyHead) {
  Tgd bad;
  bad.body.push_back(ParseAtom("R(X,Y)").value());
  EXPECT_FALSE(ValidateTgd(bad).ok());
}

TEST(TgdSetTest, SchemaAndMetrics) {
  TgdSet tgds = ParseTgds(
                    "R(X,Y), P(Y) -> T(X)."
                    "T(X) -> U(X,a).")
                    .value();
  EXPECT_EQ(tgds.SchemaOf().size(), 4u);
  EXPECT_EQ(tgds.HeadPredicates().size(), 2u);
  EXPECT_EQ(tgds.MaxBodySize(), 2u);
  EXPECT_EQ(tgds.Constants().size(), 1u);
  // Symbols: R(2)+P(1)+T(1) bodies + T(1)+U(2) heads + 5 predicates = 12.
  EXPECT_EQ(tgds.SymbolCount(), 12u);
}

TEST(OmqTest, BasicAccessors) {
  Schema s;
  s.Add(Predicate::Get("R", 2));
  Omq q{s, ParseTgds("R(X,Y) -> P(Y).").value(),
        ParseQuery("Q(X) :- P(X)").value()};
  EXPECT_EQ(q.AnswerArity(), 1u);
  EXPECT_EQ(q.CombinedSchema().size(), 2u);
  EXPECT_EQ(q.OntologyClass(), TgdClass::kLinear);
  EXPECT_GT(q.SymbolCount(), 0u);
  EXPECT_NE(q.ToString().find("R(X,Y) -> P(Y)"), std::string::npos);
}

TEST(OmqTest, ValidateCatchesBadQuery) {
  Schema s;
  s.Add(Predicate::Get("R", 2));
  Omq q{s, TgdSet{},
        ConjunctiveQuery({Term::Variable("Z")},
                         {ParseAtom("R(X,Y)").value()})};
  EXPECT_FALSE(ValidateOmq(q).ok());
}

TEST(OmqTest, FullSchemaOfCollectsQueryPredicates) {
  Schema s = FullSchemaOf(ParseTgds("A(X) -> B(X).").value(),
                          ParseQuery("Q() :- C(X)").value());
  EXPECT_EQ(s.size(), 3u);
}

TEST(TgdSetTest, ToStringRoundTripsThroughParser) {
  TgdSet tgds = ParseTgds(
                    "R(X,Y) -> S(Y,Z)."
                    "-> Seed(c).")
                    .value();
  std::string text;
  for (const Tgd& tgd : tgds.tgds) text += tgd.ToString() + ".";
  auto reparsed = ParseTgds(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->size(), tgds.size());
  EXPECT_EQ(reparsed->ToString(), tgds.ToString());
}

}  // namespace
}  // namespace omqc
