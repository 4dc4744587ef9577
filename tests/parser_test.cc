// Tests for the DLGP-style program parser.

#include <gtest/gtest.h>

#include "tgd/parser.h"

namespace omqc {
namespace {

TEST(ParserTest, ParsesTgd) {
  auto tgd = ParseTgd("R(X,Y), P(Y) -> T(X,Z)");
  ASSERT_TRUE(tgd.ok()) << tgd.status().ToString();
  EXPECT_EQ(tgd->body.size(), 2u);
  EXPECT_EQ(tgd->head.size(), 1u);
  EXPECT_EQ(tgd->ExistentialVariables().size(), 1u);
  EXPECT_EQ(tgd->ToString(), "R(X,Y), P(Y) -> T(X,Z)");
}

TEST(ParserTest, ParsesFactTgd) {
  auto tgd = ParseTgd("-> Tile(X)");
  ASSERT_TRUE(tgd.ok());
  EXPECT_TRUE(tgd->body.empty());
  auto tgd2 = ParseTgd("true -> Tile(X)");
  ASSERT_TRUE(tgd2.ok());
  EXPECT_TRUE(tgd2->body.empty());
}

TEST(ParserTest, ParsesQueryWithAnswerVariables) {
  auto q = ParseQuery("Q(X,Y) :- R(X,Z), S(Z,Y)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->answer_vars.size(), 2u);
  EXPECT_EQ(q->body.size(), 2u);
}

TEST(ParserTest, ParsesBooleanQuery) {
  auto q = ParseQuery("Q() :- R(X,Y)");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->IsBoolean());
}

TEST(ParserTest, ParsesConstantsVariablesQuoted) {
  auto atom = ParseAtom("R(X, abc, 'Hello World', 42)");
  ASSERT_TRUE(atom.ok()) << atom.status().ToString();
  EXPECT_TRUE(atom->args[0].IsVariable());
  EXPECT_TRUE(atom->args[1].IsConstant());
  EXPECT_TRUE(atom->args[2].IsConstant());
  EXPECT_EQ(atom->args[2].ToString(), "Hello World");
  EXPECT_TRUE(atom->args[3].IsConstant());
}

TEST(ParserTest, UnderscorePrefixIsVariable) {
  auto atom = ParseAtom("R(_x, y)");
  ASSERT_TRUE(atom.ok());
  EXPECT_TRUE(atom->args[0].IsVariable());
  EXPECT_TRUE(atom->args[1].IsConstant());
}

TEST(ParserTest, ParsesFullProgram) {
  auto program = ParseProgram(R"(
    % An ontology with a query and data.
    R(X,Y) -> P(Y).
    P(X) -> T(X,Z).
    Q(X) :- T(X,Y).
    R(a,b).
    R(b,c).
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->tgds.size(), 2u);
  EXPECT_EQ(program->queries.size(), 1u);
  EXPECT_EQ(program->facts.size(), 2u);
}

TEST(ParserTest, QueriesSharingANameFormAUcq) {
  auto program = ParseProgram("Q(X) :- R(X). Q(X) :- P(X). Other(X) :- T(X).");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->QueriesNamed("Q").size(), 2u);
  EXPECT_EQ(program->QueriesNamed("Other").size(), 1u);
  EXPECT_TRUE(program->QueriesNamed("Missing").empty());
}

TEST(ParserTest, NullaryAtoms) {
  auto program = ParseProgram("Goal(). C0(), C1() -> Goal().");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->facts.size(), 1u);
  EXPECT_EQ(program->tgds.size(), 1u);
}

TEST(ParserTest, ErrorsCarryPositions) {
  auto program = ParseProgram("R(X,Y) -> ");
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserTest, RejectsFactWithVariables) {
  auto program = ParseProgram("R(X,b).");
  ASSERT_FALSE(program.ok());
}

TEST(ParserTest, RejectsArityMismatch) {
  auto program = ParseProgram("R(a,b). R(a) -> P(a).");
  ASSERT_FALSE(program.ok());
}

TEST(ParserTest, RejectsUnterminatedQuote) {
  auto program = ParseProgram("R('abc.");
  ASSERT_FALSE(program.ok());
}

TEST(ParserTest, RejectsEngineReservedConstants) {
  // '@' names engine-made constants (frozen variables are "@f_X"): a
  // program that could write one could alias a frozen query.
  for (const char* text : {"R(@c).", "R('@f0_X').", "R('@f_X')."}) {
    auto program = ParseProgram(text);
    ASSERT_FALSE(program.ok()) << text;
    EXPECT_NE(program.status().message().find("'@"), std::string::npos)
        << program.status().ToString();
  }
  auto query = ParseQuery("Q() :- R('@f0_X')");
  EXPECT_FALSE(query.ok());
  // Predicate and variable names may still carry '@'.
  auto atom = ParseAtom("P@b(X@1, c)");
  ASSERT_TRUE(atom.ok()) << atom.status().ToString();
  EXPECT_TRUE(atom->args[0].IsVariable());
}

TEST(ParserTest, CommentsAndWhitespace) {
  auto program = ParseProgram(
      "% leading comment\n  R(a,b). % trailing comment\n%final");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->facts.size(), 1u);
}

TEST(ParserTest, ParseUCQRejectsMixedContent) {
  EXPECT_FALSE(ParseUCQ("R(a,b).").ok());
  EXPECT_TRUE(ParseUCQ("Q() :- R(X,Y). Q() :- P(X).").ok());
}

TEST(ParserTest, MultiAtomQueryHeadRejected) {
  EXPECT_FALSE(ParseProgram("Q(X), P(X) :- R(X).").ok());
}

}  // namespace
}  // namespace omqc
