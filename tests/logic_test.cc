// Unit tests for src/logic: terms, atoms, instances, substitutions, CQs.

#include <gtest/gtest.h>

#include "logic/cq.h"
#include "logic/instance.h"
#include "logic/substitution.h"
#include "logic/term.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

TEST(TermTest, ConstantsAreInterned) {
  Term a1 = Term::Constant("a");
  Term a2 = Term::Constant("a");
  Term b = Term::Constant("b");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_TRUE(a1.IsConstant());
  EXPECT_EQ(a1.ToString(), "a");
}

TEST(TermTest, VariablesAreDistinctFromConstants) {
  Term x = Term::Variable("x_name");
  Term c = Term::Constant("x_name");
  EXPECT_NE(x, c);
  EXPECT_TRUE(x.IsVariable());
  EXPECT_TRUE(c.IsConstant());
}

TEST(TermTest, TotalOrderIsConsistent) {
  Term a = Term::Constant("a");
  Term x = Term::Variable("X");
  Term n = Term::NullWithId(0);
  EXPECT_TRUE(a < n || n < a);
  EXPECT_TRUE(a < x || x < a);
  EXPECT_FALSE(a < a);
}

TEST(PredicateTest, InterningRespectsArity) {
  Predicate p1 = Predicate::Get("R", 2);
  Predicate p2 = Predicate::Get("R", 2);
  Predicate p3 = Predicate::Get("R", 3);
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, p3);
  EXPECT_EQ(p1.name(), "R");
  EXPECT_EQ(p3.arity(), 3);
  EXPECT_EQ(p1.ToString(), "R/2");
}

TEST(AtomTest, BasicProperties) {
  Atom fact = Atom::Make("R", {Term::Constant("a"), Term::Constant("b")});
  EXPECT_TRUE(fact.IsFact());
  EXPECT_EQ(fact.ToString(), "R(a,b)");

  Atom open = Atom::Make("R", {Term::Constant("a"), Term::Variable("X")});
  EXPECT_FALSE(open.IsFact());
  EXPECT_EQ(open.Variables().size(), 1u);
}

TEST(SchemaTest, MaxArityAndUnion) {
  Schema s1(std::set<Predicate>{Predicate::Get("R", 2),
                                Predicate::Get("P", 1)});
  Schema s2(std::set<Predicate>{Predicate::Get("T", 3)});
  EXPECT_EQ(s1.MaxArity(), 2);
  Schema u = s1.Union(s2);
  EXPECT_EQ(u.size(), 3u);
  EXPECT_EQ(u.MaxArity(), 3);
  EXPECT_TRUE(u.Contains(Predicate::Get("P", 1)));
}

TEST(InstanceTest, AddDeduplicatesAndIndexes) {
  Instance inst;
  Atom r_ab = Atom::Make("R", {Term::Constant("a"), Term::Constant("b")});
  EXPECT_TRUE(inst.Add(r_ab));
  EXPECT_FALSE(inst.Add(r_ab));
  EXPECT_EQ(inst.size(), 1u);
  EXPECT_TRUE(inst.Contains(r_ab));
  EXPECT_EQ(inst.IdsWith(Predicate::Get("R", 2)).size(), 1u);
  EXPECT_EQ(
      inst.IdsWithArg(Predicate::Get("R", 2), 0, Term::Constant("a")).size(),
      1u);
  EXPECT_TRUE(
      inst.IdsWithArg(Predicate::Get("R", 2), 0, Term::Constant("b"))
          .empty());
}

TEST(InstanceTest, ActiveDomainAndSchema) {
  Instance inst;
  inst.Add(Atom::Make("R", {Term::Constant("a"), Term::NullWithId(0)}));
  inst.Add(Atom::Make("P", {Term::Constant("a")}));
  EXPECT_EQ(inst.ActiveDomain().size(), 2u);
  EXPECT_EQ(inst.ActiveDomainConstants().size(), 1u);
  EXPECT_EQ(inst.InducedSchema().size(), 2u);
  EXPECT_FALSE(inst.IsDatabase());
}

TEST(InstanceTest, ToStringIgnoresInterningOrder) {
  // Intern the predicates and constants in reverse order: the listing is
  // sorted as text, not by interned id, so it still reads A before B.
  Predicate b = Predicate::Get("ToStringOrderB", 2);
  Predicate a = Predicate::Get("ToStringOrderA", 2);
  Term y = Term::Constant("to_string_y");
  Term x = Term::Constant("to_string_x");
  Instance inst;
  inst.Add(Atom(b, {y, x}));
  inst.Add(Atom(a, {y, x}));
  inst.Add(Atom(a, {x, y}));
  EXPECT_EQ(inst.ToString(),
            "ToStringOrderA(to_string_x,to_string_y).\n"
            "ToStringOrderA(to_string_y,to_string_x).\n"
            "ToStringOrderB(to_string_y,to_string_x).");
}

TEST(InstanceTest, ConnectedComponents) {
  Database db =
      ParseDatabase("R(a,b). R(b,c). R(x,y). P(z). Zero().").value();
  std::vector<Instance> components = db.ConnectedComponents();
  EXPECT_EQ(components.size(), 3u);  // {a,b,c}, {x,y}, {z}; Zero() excluded
}

TEST(SubstitutionTest, ApplyAndTransitive) {
  Substitution s;
  Term x = Term::Variable("X"), y = Term::Variable("Y");
  Term a = Term::Constant("a");
  s.Bind(x, y);
  s.Bind(y, a);
  EXPECT_EQ(s.Apply(x), y);
  EXPECT_EQ(s.ApplyTransitively(x), a);
  EXPECT_EQ(s.Apply(a), a);
}

TEST(CQTest, VariableClassification) {
  ConjunctiveQuery q = ParseQuery("Q(X) :- R(X,Y), P(Y), S(Y,Z)").value();
  EXPECT_EQ(q.Variables().size(), 3u);
  EXPECT_EQ(q.ExistentialVariables().size(), 2u);  // Y, Z
  std::set<Term> shared = q.SharedVariables();
  EXPECT_TRUE(shared.count(Term::Variable("X")) > 0);  // free
  EXPECT_TRUE(shared.count(Term::Variable("Y")) > 0);  // multiple atoms
  EXPECT_FALSE(shared.count(Term::Variable("Z")) > 0);
}

TEST(CQTest, SharedCountsRepetitionInsideOneAtom) {
  ConjunctiveQuery q = ParseQuery("Q() :- R(X,X), P(Y)").value();
  std::set<Term> shared = q.SharedVariables();
  EXPECT_TRUE(shared.count(Term::Variable("X")) > 0);
  EXPECT_FALSE(shared.count(Term::Variable("Y")) > 0);
}

TEST(CQTest, Components) {
  ConjunctiveQuery q =
      ParseQuery("Q(X) :- R(X,Y), P(Y), S(U,V), T(W)").value();
  std::vector<ConjunctiveQuery> components = q.Components();
  EXPECT_EQ(components.size(), 3u);
}

TEST(CQTest, FreezeProducesCanonicalDatabase) {
  ConjunctiveQuery q = ParseQuery("Q(X) :- R(X,Y), P(Y)").value();
  FrozenQuery frozen = Freeze(q);
  EXPECT_EQ(frozen.database.size(), 2u);
  EXPECT_TRUE(frozen.database.IsDatabase());
  EXPECT_EQ(frozen.answer_tuple.size(), 1u);
  EXPECT_TRUE(frozen.answer_tuple[0].IsConstant());
}

TEST(CQTest, FreezeIsAPureFunctionOfTheQuery) {
  ConjunctiveQuery q = ParseQuery("Q(X) :- R(X,Y), P(Y)").value();
  FrozenQuery first = Freeze(q);
  FrozenQuery second = Freeze(q);
  EXPECT_TRUE(first.database == second.database);
  EXPECT_EQ(first.answer_tuple, second.answer_tuple);
  EXPECT_EQ(first.answer_tuple[0], Term::Constant("@f_X"));
}

TEST(CQTest, FreezeKeepsConstants) {
  ConjunctiveQuery q = ParseQuery("Q() :- R(X,a)").value();
  FrozenQuery frozen = Freeze(q);
  AtomView atom = frozen.database.view(0);
  EXPECT_EQ(atom.arg(1), Term::Constant("a"));
  EXPECT_NE(atom.arg(0), Term::Constant("a"));
}

TEST(CQTest, ValidateRejectsUnboundAnswerVariable) {
  ConjunctiveQuery q({Term::Variable("Z")},
                     {Atom::Make("R", {Term::Variable("X")})});
  EXPECT_FALSE(ValidateCQ(q).ok());
}

TEST(IsomorphismTest, RenamedQueriesAreIsomorphic) {
  ConjunctiveQuery q1 = ParseQuery("Q(X) :- R(X,Y), P(Y)").value();
  ConjunctiveQuery q2 = ParseQuery("Q(U) :- R(U,V), P(V)").value();
  EXPECT_TRUE(IsomorphicCQs(q1, q2));
}

TEST(IsomorphismTest, DifferentShapesAreNot) {
  ConjunctiveQuery q1 = ParseQuery("Q(X) :- R(X,Y), P(Y)").value();
  ConjunctiveQuery q2 = ParseQuery("Q(X) :- R(X,Y), P(X)").value();
  EXPECT_FALSE(IsomorphicCQs(q1, q2));
}

TEST(IsomorphismTest, ConstantsMustMatchExactly) {
  ConjunctiveQuery q1 = ParseQuery("Q() :- R(X,a)").value();
  ConjunctiveQuery q2 = ParseQuery("Q() :- R(X,b)").value();
  ConjunctiveQuery q3 = ParseQuery("Q() :- R(Y,a)").value();
  EXPECT_FALSE(IsomorphicCQs(q1, q2));
  EXPECT_TRUE(IsomorphicCQs(q1, q3));
}

TEST(IsomorphismTest, AnswerTupleMustCorrespond) {
  ConjunctiveQuery q1 = ParseQuery("Q(X,Y) :- R(X,Y)").value();
  ConjunctiveQuery q2 = ParseQuery("Q(Y,X) :- R(X,Y)").value();
  EXPECT_FALSE(IsomorphicCQs(q1, q2));
}

TEST(IsomorphismTest, RepeatedVariablePatternsDiffer) {
  ConjunctiveQuery q1 = ParseQuery("Q() :- R(X,X)").value();
  ConjunctiveQuery q2 = ParseQuery("Q() :- R(X,Y)").value();
  EXPECT_FALSE(IsomorphicCQs(q1, q2));
  EXPECT_FALSE(IsomorphicCQs(q2, q1));
}

}  // namespace
}  // namespace omqc
