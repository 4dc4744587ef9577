// Tests for the CQ evaluation engine (homomorphism search).

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "base/governor.h"
#include "logic/homomorphism.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

Database Db(const std::string& text) {
  auto db = ParseDatabase(text);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.value();
}

ConjunctiveQuery Q(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return q.value();
}

TEST(HomomorphismTest, FindsSimpleMatch) {
  Database db = Db("R(a,b). P(b).");
  ConjunctiveQuery q = Q("Q(X) :- R(X,Y), P(Y)");
  auto hom = FindHomomorphism(q.body, db);
  ASSERT_TRUE(hom.has_value());
  EXPECT_EQ(hom->Apply(Term::Variable("X")), Term::Constant("a"));
}

TEST(HomomorphismTest, RespectsJoins) {
  Database db = Db("R(a,b). P(c).");
  ConjunctiveQuery q = Q("Q(X) :- R(X,Y), P(Y)");
  EXPECT_FALSE(FindHomomorphism(q.body, db).has_value());
}

TEST(HomomorphismTest, ConstantsMustMatch) {
  Database db = Db("R(a,b).");
  ConjunctiveQuery q1 = Q("Q() :- R(a,Y)");
  ConjunctiveQuery q2 = Q("Q() :- R(b,Y)");
  EXPECT_TRUE(FindHomomorphism(q1.body, db).has_value());
  EXPECT_FALSE(FindHomomorphism(q2.body, db).has_value());
}

TEST(HomomorphismTest, SeedConstrainsSearch) {
  Database db = Db("R(a,b). R(c,d).");
  ConjunctiveQuery q = Q("Q(X,Y) :- R(X,Y)");
  Substitution seed;
  seed.Bind(Term::Variable("X"), Term::Constant("c"));
  auto hom = FindHomomorphism(q.body, db, seed);
  ASSERT_TRUE(hom.has_value());
  EXPECT_EQ(hom->Apply(Term::Variable("Y")), Term::Constant("d"));
}

TEST(HomomorphismTest, ExcludedAtomIsNeverMatched) {
  Database db = Db("R(a,b). R(a,c). P(b).");
  ConjunctiveQuery q = Q("Q() :- R(a,Y)");
  auto id_of = [&db](const char* second) {
    return *db.FindId(Atom(Predicate::Get("R", 2),
                           {Term::Constant("a"), Term::Constant(second)}));
  };
  const AtomId ab = id_of("b");
  const AtomId ac = id_of("c");
  HomomorphismOptions options;
  options.excluded_atom = ab;
  Substitution witness;
  // A bound position (the constant a) goes through the id-list loop.
  ASSERT_EQ(SearchHomomorphism(q.body, db, Substitution(), options, &witness),
            HomSearchOutcome::kFound);
  EXPECT_EQ(witness.Apply(Term::Variable("Y")), Term::Constant("c"));
  // A fully unbound atom goes through the packed predicate sweep.
  ConjunctiveQuery join = Q("Q() :- R(X,Y), P(Y)");
  EXPECT_EQ(SearchHomomorphism(join.body, db, Substitution(), options),
            HomSearchOutcome::kNotFound);
  options.excluded_atom = ac;
  EXPECT_EQ(SearchHomomorphism(join.body, db, Substitution(), options),
            HomSearchOutcome::kFound);
}

TEST(HomomorphismTest, PinnedAtomDrawsFromSuppliedList) {
  Database db = Db("R(a,b). R(b,c). R(c,d). P(b). P(c). P(d).");
  ConjunctiveQuery q = Q("Q(X,Y) :- R(X,Y), P(Y)");
  // Pin the R atom to a single candidate: only homomorphisms mapping
  // R(X,Y) onto R(b,c) are enumerated; P(Y) still matches in the full
  // instance.
  const std::vector<AtomId>& r_ids = db.IdsWith(Predicate::Get("R", 2));
  ASSERT_EQ(r_ids.size(), 3u);
  ASSERT_EQ(db.FindId(Atom::Make("R", {Term::Constant("b"),
                                       Term::Constant("c")})),
            r_ids[1]);
  std::vector<Substitution> found;
  ForEachHomomorphismPinned(q.body, /*pinned_index=*/0, r_ids.data() + 1,
                            /*pinned_count=*/1, db, Substitution(),
                            [&](const Substitution& sub) {
                              found.push_back(sub);
                              return true;
                            });
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].Apply(Term::Variable("X")), Term::Constant("b"));
  EXPECT_EQ(found[0].Apply(Term::Variable("Y")), Term::Constant("c"));
}

TEST(HomomorphismTest, PinnedRangeOfOnePredicateIgnoresTheOthers) {
  Database db = Db("P(b). R(a,b). P(a).");
  ConjunctiveQuery q = Q("Q(X,Y) :- R(X,Y)");
  // The range comes from IdsWith, so the P atoms around the R atom in
  // the arena are never candidates.
  const std::vector<AtomId>& r_ids = db.IdsWith(Predicate::Get("R", 2));
  int count = 0;
  ForEachHomomorphismPinned(q.body, 0, r_ids.data(), r_ids.size(), db,
                            Substitution(), [&](const Substitution&) {
                              ++count;
                              return true;
                            });
  EXPECT_EQ(count, 1);
  // An empty range enumerates nothing.
  ForEachHomomorphismPinned(q.body, 0, r_ids.data(), 0, db, Substitution(),
                            [&](const Substitution&) {
                              ++count;
                              return true;
                            });
  EXPECT_EQ(count, 1);
}

TEST(HomomorphismTest, PinnedEnumerationMatchesFullEnumerationOnWholeList) {
  Database db = Db("R(a,b). R(b,c). R(a,c). P(b). P(c).");
  ConjunctiveQuery q = Q("Q(X,Y) :- R(X,Y), P(Y)");
  int full = 0;
  ForEachHomomorphism(q.body, db, Substitution(),
                      [&](const Substitution&) {
                        ++full;
                        return true;
                      });
  // Pinning atom 0 to ALL R atoms is the identity decomposition.
  const std::vector<AtomId>& r_ids = db.IdsWith(Predicate::Get("R", 2));
  int pinned = 0;
  ForEachHomomorphismPinned(q.body, 0, r_ids.data(), r_ids.size(), db,
                            Substitution(), [&](const Substitution&) {
                              ++pinned;
                              return true;
                            });
  EXPECT_EQ(full, pinned);
  EXPECT_EQ(full, 3);  // (a,b), (b,c), (a,c) all satisfy P(Y)
}

TEST(HomomorphismTest, EnumeratesAllHomomorphisms) {
  Database db = Db("R(a,b). R(a,c). R(d,e).");
  ConjunctiveQuery q = Q("Q(X,Y) :- R(X,Y)");
  int count = 0;
  ForEachHomomorphism(q.body, db, Substitution(),
                      [&count](const Substitution&) {
                        ++count;
                        return true;
                      });
  EXPECT_EQ(count, 3);
}

TEST(HomomorphismTest, EarlyStop) {
  Database db = Db("R(a,b). R(a,c). R(d,e).");
  ConjunctiveQuery q = Q("Q(X,Y) :- R(X,Y)");
  int count = 0;
  ForEachHomomorphism(q.body, db, Substitution(),
                      [&count](const Substitution&) {
                        ++count;
                        return false;
                      });
  EXPECT_EQ(count, 1);
}

TEST(EvaluateCQTest, CollectsConstantTuples) {
  Database db = Db("R(a,b). R(b,c). P(b).");
  auto answers = EvaluateCQ(Q("Q(X) :- R(X,Y), P(Y)"), db);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0][0], Term::Constant("a"));
}

TEST(EvaluateCQTest, NullsAreNotAnswers) {
  Instance inst;
  Term n = Term::NullWithId(0);
  inst.Add(Atom::Make("R", {Term::Constant("a"), n}));
  auto answers = EvaluateCQ(Q("Q(X,Y) :- R(X,Y)"), inst);
  EXPECT_TRUE(answers.empty());  // (a, null) filtered out
  auto boolean = EvaluateCQ(Q("Q() :- R(X,Y)"), inst);
  EXPECT_EQ(boolean.size(), 1u);  // but the Boolean projection holds
}

TEST(EvaluateCQTest, EmptyBodyYieldsEmptyTuple) {
  Database db;
  ConjunctiveQuery q({}, {});
  auto answers = EvaluateCQ(q, db);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_TRUE(answers[0].empty());
}

TEST(EvaluateUCQTest, UnionsAndDeduplicates) {
  Database db = Db("R(a,b). P(a).");
  UnionOfCQs ucq = ParseUCQ("Q(X) :- R(X,Y). Q(X) :- P(X).").value();
  auto answers = EvaluateUCQ(ucq, db);
  EXPECT_EQ(answers.size(), 1u);  // both disjuncts give (a)
}

TEST(TupleInAnswerTest, ChecksMembership) {
  Database db = Db("R(a,b). R(b,c).");
  ConjunctiveQuery q = Q("Q(X) :- R(X,Y)");
  EXPECT_TRUE(TupleInAnswer(q, db, {Term::Constant("a")}));
  EXPECT_TRUE(TupleInAnswer(q, db, {Term::Constant("b")}));
  EXPECT_FALSE(TupleInAnswer(q, db, {Term::Constant("c")}));
}

TEST(TupleInAnswerTest, RepeatedAnswerVariables) {
  Database db = Db("R(a,a). R(a,b).");
  ConjunctiveQuery q = Q("Q(X,X) :- R(X,X)");
  EXPECT_TRUE(
      TupleInAnswer(q, db, {Term::Constant("a"), Term::Constant("a")}));
  EXPECT_FALSE(
      TupleInAnswer(q, db, {Term::Constant("a"), Term::Constant("b")}));
}

TEST(CQContainmentTest, ChandraMerlin) {
  // More atoms = more constrained: longer chains are contained in shorter.
  ConjunctiveQuery path2 = Q("Q(X) :- R(X,Y), R(Y,Z)");
  ConjunctiveQuery path1 = Q("Q(X) :- R(X,Y)");
  EXPECT_TRUE(CQContainedIn(path2, path1));
  EXPECT_FALSE(CQContainedIn(path1, path2));
}

TEST(CQContainmentTest, SelfContainment) {
  ConjunctiveQuery q = Q("Q(X) :- R(X,Y), P(Y)");
  EXPECT_TRUE(CQContainedIn(q, q));
}

TEST(UCQContainmentTest, SagivYannakakis) {
  UnionOfCQs u1 = ParseUCQ("Q(X) :- R(X,Y), R(Y,Z).").value();
  UnionOfCQs u2 = ParseUCQ("Q(X) :- R(X,Y). Q(X) :- P(X).").value();
  EXPECT_TRUE(UCQContainedIn(u1, u2));
  EXPECT_FALSE(UCQContainedIn(u2, u1));
}

TEST(HomomorphismTest, BudgetedSearchDistinguishesExhaustionFromAbsence) {
  // q has no match in db: unbounded search proves it, a 1-step budget
  // cannot — the tri-state result must say kExhausted, not kNotFound.
  Database db = Db("R(a,b). P(z).");
  ConjunctiveQuery q = Q("Q() :- R(X,Y), P(Y)");
  EXPECT_EQ(SearchHomomorphism(q.body, db), HomSearchOutcome::kNotFound);
  HomomorphismOptions tiny;
  tiny.max_steps = 1;
  EXPECT_EQ(SearchHomomorphism(q.body, db, Substitution(), tiny),
            HomSearchOutcome::kExhausted);
  // A match found within the budget is still kFound.
  Database matching = Db("R(a,b). P(b).");
  HomomorphismOptions enough;
  enough.max_steps = 100;
  EXPECT_EQ(SearchHomomorphism(q.body, matching, Substitution(), enough),
            HomSearchOutcome::kFound);
}

TEST(HomomorphismTest, CountersTallySearchWork) {
  Database db = Db("R(a,b). R(b,c). P(c).");
  ConjunctiveQuery q = Q("Q(X) :- R(X,Y), P(Y)");
  HomCounters counters;
  HomomorphismOptions options;
  options.counters = &counters;
  EXPECT_EQ(SearchHomomorphism(q.body, db, Substitution(), options),
            HomSearchOutcome::kFound);
  EXPECT_EQ(counters.searches, 1u);
  EXPECT_GT(counters.steps, 0u);
  EXPECT_GT(counters.candidates_scanned, 0u);
  EXPECT_EQ(counters.budget_exhaustions, 0u);

  options.max_steps = 1;
  ConjunctiveQuery none = Q("Q() :- R(X,Y), P(X)");
  EXPECT_EQ(SearchHomomorphism(none.body, db, Substitution(), options),
            HomSearchOutcome::kExhausted);
  EXPECT_EQ(counters.searches, 2u);
  EXPECT_EQ(counters.budget_exhaustions, 1u);
}

TEST(HomomorphismTest, CandidatesUseMostSelectiveIndex) {
  // Atom R(a,c): position 0 indexes 101 atoms, position 1 only one. The
  // candidate scan must use the smaller list (regression: the old code
  // took the first bound position and scanned all 101).
  Database db;
  for (int i = 0; i < 100; ++i) {
    db.Add(Atom::Make("R", {Term::Constant("a"),
                            Term::Constant("b" + std::to_string(i))}));
  }
  db.Add(Atom::Make("R", {Term::Constant("a"), Term::Constant("c")}));
  ConjunctiveQuery q = Q("Q() :- R(a,c)");
  HomCounters counters;
  HomomorphismOptions options;
  options.counters = &counters;
  EXPECT_EQ(SearchHomomorphism(q.body, db, Substitution(), options),
            HomSearchOutcome::kFound);
  EXPECT_EQ(counters.candidates_scanned, 1u);
}

TEST(HomomorphismTest, EmptyBoundPostingsShortCircuitBeforeGovernor) {
  // R(zz,X): the bound constant zz never occurs at position 0, so the
  // (R, 0, zz) postings list is empty. BuildCandidates must refute the
  // atom outright — no candidates scanned, no intersection run, and no
  // governor probe burned on a search a single index lookup settles
  // (regression: the old pick-smallest heuristic consulted the governor
  // before discovering the scan set was empty).
  Database db;
  for (int i = 0; i < 200; ++i) {
    db.Add(Atom::Make("R", {Term::Constant("a"),
                            Term::Constant("b" + std::to_string(i))}));
  }
  ConjunctiveQuery q = Q("Q(X) :- R(zz,X)");
  HomCounters counters;
  ResourceGovernor governor;
  HomomorphismOptions options;
  options.counters = &counters;
  options.governor = &governor;
  EXPECT_EQ(SearchHomomorphism(q.body, db, Substitution(), options),
            HomSearchOutcome::kNotFound);
  EXPECT_EQ(counters.candidates_scanned, 0u);
  EXPECT_EQ(counters.postings_intersections, 0u);
  EXPECT_EQ(governor.counters().checks, 0u);
}

TEST(HomomorphismTest, IntersectionCountersPinned) {
  // R(a,c) with both positions bound: position 0 matches 101 atoms,
  // position 1 matches 3 (R(a,c), R(x1,c), R(x2,c)); the intersection is
  // the single atom R(a,c). Exactly one k-way intersection runs, the
  // backtracking loop touches exactly one candidate, and the pruning
  // counter credits the 2 candidates the intersection removed relative to
  // scanning the smallest list (the pre-kernel heuristic's scan set).
  Database db;
  for (int i = 0; i < 100; ++i) {
    db.Add(Atom::Make("R", {Term::Constant("a"),
                            Term::Constant("b" + std::to_string(i))}));
  }
  db.Add(Atom::Make("R", {Term::Constant("a"), Term::Constant("c")}));
  db.Add(Atom::Make("R", {Term::Constant("x1"), Term::Constant("c")}));
  db.Add(Atom::Make("R", {Term::Constant("x2"), Term::Constant("c")}));
  ConjunctiveQuery q = Q("Q() :- R(a,c)");
  HomCounters counters;
  HomomorphismOptions options;
  options.counters = &counters;
  EXPECT_EQ(SearchHomomorphism(q.body, db, Substitution(), options),
            HomSearchOutcome::kFound);
  EXPECT_EQ(counters.postings_intersections, 1u);
  EXPECT_EQ(counters.candidates_scanned, 1u);
  EXPECT_EQ(counters.candidates_pruned_by_intersection, 2u);
}

TEST(TupleInAnswerTest, BudgetedTriState) {
  Database db = Db("R(a,b). R(b,c).");
  ConjunctiveQuery q = Q("Q(X) :- R(X,Y), R(Y,Z)");
  EXPECT_EQ(TupleInAnswerBudgeted(q, db, {Term::Constant("a")}),
            HomSearchOutcome::kFound);
  EXPECT_EQ(TupleInAnswerBudgeted(q, db, {Term::Constant("b")}),
            HomSearchOutcome::kNotFound);
  HomomorphismOptions tiny;
  tiny.max_steps = 1;
  EXPECT_EQ(TupleInAnswerBudgeted(q, db, {Term::Constant("b")}, tiny),
            HomSearchOutcome::kExhausted);
  // Arity mismatch is a definite miss, not an exhaustion.
  EXPECT_EQ(TupleInAnswerBudgeted(q, db, {}, tiny),
            HomSearchOutcome::kNotFound);
}

TEST(HomomorphismTest, LargerJoinUsesIndexes) {
  // A modest butterfly join to exercise the most-constrained-first order.
  Database db;
  for (int i = 0; i < 30; ++i) {
    db.Add(Atom::Make("E", {Term::Constant("v" + std::to_string(i)),
                            Term::Constant("v" + std::to_string(i + 1))}));
  }
  ConjunctiveQuery q = Q("Q(A) :- E(A,B), E(B,C), E(C,D), E(D,F)");
  auto answers = EvaluateCQ(q, db);
  EXPECT_EQ(answers.size(), 27u);
}

// The search numbers the variables of its atoms into slots on a
// workspace reused per thread and nesting depth. The tests below pin
// what that must not change: a visitor may search again, threads search
// independently, and the witness is the whole seed plus the slots.

/// The images of `vars` under `sub`, in order: "a,b,".
std::string Images(const Substitution& sub, const std::vector<Term>& vars) {
  std::string out;
  for (const Term& v : vars) out += sub.Apply(v).ToString() + ",";
  return out;
}

TEST(HomomorphismReentrancyTest, VisitorsThatSearchSeeTopLevelResults) {
  Database db = Db("E(a,b). E(b,c). E(c,d). E(d,a). E(b,d). P(c). P(d).");
  ConjunctiveQuery edge = Q("Q(X,Y) :- E(X,Y)");
  ConjunctiveQuery reach = Q("Q(X) :- E(X,Y), E(Y,Z), P(Z)");
  ConjunctiveQuery path = Q("Q(X,Z) :- E(X,Y), E(Y,Z)");
  const std::vector<Term> xy = {Term::Variable("X"), Term::Variable("Y")};
  const std::vector<Term> yz = {Term::Variable("Y"), Term::Variable("Z")};
  // The two-step paths from `from`, by enumeration.
  auto paths_from = [&](const Term& from) {
    std::vector<std::string> ends;
    Substitution seed;
    seed.Bind(Term::Variable("X"), from);
    ForEachHomomorphism(path.body, db, seed, [&](const Substitution& sub) {
      ends.push_back(Images(sub, yz));
      return true;
    });
    return ends;
  };

  struct Visit {
    std::string edge;
    bool reaches = false;
    std::vector<std::string> paths;
  };
  std::vector<Visit> nested;
  ForEachHomomorphism(edge.body, db, Substitution(),
                      [&](const Substitution& sub) {
                        Visit visit;
                        visit.edge = Images(sub, xy);
                        const Term x = sub.Apply(Term::Variable("X"));
                        visit.reaches = TupleInAnswer(reach, db, {x});
                        visit.paths = paths_from(x);
                        // The nested searches left this one's bindings be.
                        EXPECT_EQ(Images(sub, xy), visit.edge);
                        nested.push_back(visit);
                        return true;
                      });

  std::vector<Term> sources;
  ForEachHomomorphism(edge.body, db, Substitution(),
                      [&](const Substitution& sub) {
                        sources.push_back(sub.Apply(Term::Variable("X")));
                        return true;
                      });
  ASSERT_EQ(nested.size(), 5u);
  ASSERT_EQ(sources.size(), nested.size());
  for (size_t i = 0; i < nested.size(); ++i) {
    SCOPED_TRACE(nested[i].edge);
    EXPECT_EQ(nested[i].edge.substr(0, nested[i].edge.find(',')),
              sources[i].ToString());
    EXPECT_EQ(nested[i].reaches, TupleInAnswer(reach, db, {sources[i]}));
    EXPECT_EQ(nested[i].paths, paths_from(sources[i]));
  }
}

TEST(HomomorphismReentrancyTest, ConcurrentSearchesAgreeWithASerialRun) {
  Database db;
  for (int i = 0; i < 40; ++i) {
    db.Add(Atom::Make("E", {Term::Constant("v" + std::to_string(i)),
                            Term::Constant("v" + std::to_string(i + 1))}));
    db.Add(Atom::Make("E", {Term::Constant("v" + std::to_string(i)),
                            Term::Constant("v" + std::to_string(i / 2))}));
  }
  db.Add(Atom::Make("P", {Term::Constant("v7")}));
  const std::vector<ConjunctiveQuery> queries = {
      Q("Q(A) :- E(A,B), E(B,C), P(C)"),
      Q("Q(A,C) :- E(A,B), E(B,C), E(C,A)"),
      Q("Q(A) :- E(A,B), E(B,C), E(C,D), E(D,F)"),
  };
  auto run = [&] {
    std::vector<std::string> out;
    for (int round = 0; round < 20; ++round) {
      for (const ConjunctiveQuery& q : queries) {
        std::string line;
        for (const std::vector<Term>& tuple : EvaluateCQ(q, db)) {
          for (const Term& t : tuple) line += t.ToString() + ",";
          line += TupleInAnswer(q, db, tuple) ? "+;" : "-;";
        }
        out.push_back(line);
      }
    }
    return out;
  };
  const std::vector<std::string> serial = run();
  std::vector<std::vector<std::string>> parallel(4);
  std::vector<std::thread> threads;
  for (auto& result : parallel) {
    threads.emplace_back([&run, &result] { result = run(); });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& result : parallel) EXPECT_EQ(result, serial);
}

TEST(HomomorphismTest, WitnessKeepsSeedBindingsOutsideTheAtoms) {
  Database db = Db("R(a,b).");
  ConjunctiveQuery q = Q("Q(X) :- R(X,Y)");
  Substitution seed;
  seed.Bind(Term::Variable("X"), Term::Constant("a"));
  seed.Bind(Term::Variable("Unused"), Term::Constant("zz"));
  Substitution witness;
  ASSERT_EQ(SearchHomomorphism(q.body, db, seed, HomomorphismOptions(),
                               &witness),
            HomSearchOutcome::kFound);
  EXPECT_EQ(witness.size(), 3u);
  EXPECT_EQ(witness.Apply(Term::Variable("Unused")), Term::Constant("zz"));
  EXPECT_EQ(witness.Apply(Term::Variable("Y")), Term::Constant("b"));
  // The enumeration hands visitors the same substitution.
  std::vector<std::string> visited;
  ForEachHomomorphism(q.body, db, seed, [&](const Substitution& sub) {
    visited.push_back(sub.ToString());
    return true;
  });
  EXPECT_EQ(visited, std::vector<std::string>{witness.ToString()});
  // The witness may be written into the seed itself.
  ASSERT_EQ(SearchHomomorphism(q.body, db, seed, HomomorphismOptions(), &seed),
            HomSearchOutcome::kFound);
  EXPECT_EQ(seed.ToString(), witness.ToString());
}

TEST(HomomorphismTest, SeedMayBindAVariableToANull) {
  Database db;
  const Term null = Term::NullWithId(7);
  db.Add(Atom::Make("R", {null, Term::Constant("b")}));
  db.Add(Atom::Make("R", {Term::Constant("a"), Term::Constant("c")}));
  ConjunctiveQuery q = Q("Q(X) :- R(X,Y)");
  Substitution seed;
  seed.Bind(Term::Variable("X"), null);
  Substitution witness;
  ASSERT_EQ(SearchHomomorphism(q.body, db, seed, HomomorphismOptions(),
                               &witness),
            HomSearchOutcome::kFound);
  EXPECT_EQ(witness.Apply(Term::Variable("X")), null);
  EXPECT_EQ(witness.Apply(Term::Variable("Y")), Term::Constant("b"));
  seed.Bind(Term::Variable("X"), Term::NullWithId(8));
  EXPECT_EQ(SearchHomomorphism(q.body, db, seed), HomSearchOutcome::kNotFound);
}

TEST(HomomorphismTest, ExcludedAtomIsHonoredByEnumerationAndMembership) {
  Database db = Db("R(a,b). R(a,c).");
  ConjunctiveQuery q = Q("Q(Y) :- R(a,Y)");
  HomomorphismOptions options;
  options.excluded_atom = *db.FindId(
      Atom::Make("R", {Term::Constant("a"), Term::Constant("b")}));
  std::vector<std::string> images;
  ForEachHomomorphism(
      q.body, db, Substitution(),
      [&](const Substitution& sub) {
        images.push_back(sub.Apply(Term::Variable("Y")).ToString());
        return true;
      },
      options);
  EXPECT_EQ(images, std::vector<std::string>{"c"});
  EXPECT_EQ(TupleInAnswerBudgeted(q, db, {Term::Constant("b")}, options),
            HomSearchOutcome::kNotFound);
  EXPECT_EQ(TupleInAnswerBudgeted(q, db, {Term::Constant("c")}, options),
            HomSearchOutcome::kFound);
}

TEST(HomomorphismTest, BudgetNeverTurnsExhaustionIntoAbsence) {
  // For every budget: a query with a match reports kFound or kExhausted,
  // a query without one kNotFound or kExhausted, and from the budget the
  // unbounded search needed on, the exact answer.
  Database db;
  for (int i = 0; i < 12; ++i) {
    db.Add(Atom::Make("E", {Term::Constant("v" + std::to_string(i)),
                            Term::Constant("v" + std::to_string(i + 1))}));
  }
  db.Add(Atom::Make("P", {Term::Constant("v12")}));
  ConjunctiveQuery hit = Q("Q(A) :- E(A,B), E(B,C), E(C,D), P(D)");
  ConjunctiveQuery miss = Q("Q(A) :- E(A,B), E(B,C), E(C,D), P(C), P(D)");
  for (const ConjunctiveQuery* q : {&hit, &miss}) {
    HomCounters unbounded;
    HomomorphismOptions exact;
    exact.counters = &unbounded;
    const HomSearchOutcome answer =
        SearchHomomorphism(q->body, db, Substitution(), exact);
    ASSERT_NE(answer, HomSearchOutcome::kExhausted);
    for (size_t budget = 1; budget <= unbounded.steps + 1; ++budget) {
      SCOPED_TRACE("budget " + std::to_string(budget));
      HomomorphismOptions options;
      options.max_steps = budget;
      const HomSearchOutcome got =
          SearchHomomorphism(q->body, db, Substitution(), options);
      if (budget >= unbounded.steps) {
        EXPECT_EQ(got, answer);
      } else {
        EXPECT_TRUE(got == answer || got == HomSearchOutcome::kExhausted);
        if (answer == HomSearchOutcome::kNotFound) {
          EXPECT_EQ(got, HomSearchOutcome::kExhausted);
        }
      }
    }
  }
}

}  // namespace
}  // namespace omqc
