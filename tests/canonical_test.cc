// Property tests for the cache keys (src/cache/canonical.h): queries and
// tgds equal up to variable renaming, and tgd sets equal up to tgd order,
// must fingerprint identically; equal query fingerprints must imply
// isomorphism (checked over the generated population); answer order,
// constant names and structure must separate keys.

#include "cache/canonical.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "generators/families.h"
#include "gtest/gtest.h"
#include "logic/cq.h"
#include "logic/substitution.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

/// Consistently renames every variable of `q` with a fresh prefix.
ConjunctiveQuery RenameCQ(const ConjunctiveQuery& q,
                          const std::string& prefix) {
  Substitution rename;
  for (const Term& v : q.Variables()) {
    rename.Bind(v, Term::Variable(prefix + v.ToString()));
  }
  return ConjunctiveQuery(rename.Apply(q.answer_vars),
                          rename.Apply(q.body));
}

Tgd RenameTgd(const Tgd& tgd, const std::string& prefix) {
  Substitution rename;
  for (const Atom& a : tgd.body) {
    for (const Term& t : a.args) {
      if (t.IsVariable()) rename.Bind(t, Term::Variable(prefix + t.ToString()));
    }
  }
  for (const Atom& a : tgd.head) {
    for (const Term& t : a.args) {
      if (t.IsVariable()) rename.Bind(t, Term::Variable(prefix + t.ToString()));
    }
  }
  Tgd out;
  out.body = rename.Apply(tgd.body);
  out.head = rename.Apply(tgd.head);
  return out;
}

TgdSet RenameAndShuffleTgds(const TgdSet& tgds, const std::string& prefix) {
  TgdSet out;
  for (const Tgd& tgd : tgds.tgds) out.tgds.push_back(RenameTgd(tgd, prefix));
  std::reverse(out.tgds.begin(), out.tgds.end());
  return out;
}

std::vector<Omq> GeneratePopulation() {
  const TgdClass classes[] = {TgdClass::kLinear, TgdClass::kNonRecursive,
                              TgdClass::kSticky, TgdClass::kGuarded,
                              TgdClass::kFull};
  std::vector<Omq> population;
  for (TgdClass target : classes) {
    for (uint32_t seed = 0; seed < 100; ++seed) {
      RandomOmqConfig config;
      config.target = target;
      config.seed = seed;
      config.num_predicates = 3 + static_cast<int>(seed % 3);
      config.query_atoms = 2 + static_cast<int>(seed % 4);
      config.num_variables = 3 + static_cast<int>(seed % 3);
      population.push_back(MakeRandomOmq(config));
    }
  }
  return population;
}

TEST(CanonicalTest, RenamedOmqsWithReorderedTgdsFingerprintIdentically) {
  std::vector<Omq> population = GeneratePopulation();
  ASSERT_GE(population.size(), 100u);
  size_t variant = 0;
  for (const Omq& omq : population) {
    const std::string prefix = "RN" + std::to_string(variant++) + "_";
    ConjunctiveQuery renamed = RenameCQ(omq.query, prefix);
    EXPECT_EQ(FingerprintCQ(omq.query), FingerprintCQ(renamed))
        << "query: " << omq.query.ToString();
    TgdSet shuffled = RenameAndShuffleTgds(omq.tgds, prefix);
    EXPECT_EQ(FingerprintTgdSet(omq.tgds), FingerprintTgdSet(shuffled));
    EXPECT_EQ(FingerprintOmqParts(omq.data_schema, omq.tgds, omq.query),
              FingerprintOmqParts(omq.data_schema, shuffled, renamed));
  }
}

TEST(CanonicalTest, EqualFingerprintsImplyIsomorphism) {
  std::vector<Omq> population = GeneratePopulation();
  std::map<Fingerprint, ConjunctiveQuery> seen;
  size_t coincidences = 0;
  for (const Omq& omq : population) {
    Fingerprint fp = FingerprintCQ(omq.query);
    auto [it, inserted] = seen.emplace(fp, omq.query);
    if (!inserted) {
      ++coincidences;
      EXPECT_TRUE(IsomorphicCQs(omq.query, it->second))
          << "fingerprint collision between non-isomorphic queries:\n  "
          << omq.query.ToString() << "\n  " << it->second.ToString();
    }
  }
  // The sweep must actually exercise distinct structures.
  EXPECT_GE(seen.size(), 50u);
  (void)coincidences;
}

TEST(CanonicalTest, EqualFingerprintsImplyIsomorphismPairwise) {
  std::vector<Omq> population = GeneratePopulation();
  std::vector<Fingerprint> fps;
  fps.reserve(population.size());
  for (const Omq& omq : population) fps.push_back(FingerprintCQ(omq.query));
  for (size_t i = 0; i < population.size(); ++i) {
    for (size_t j = i + 1; j < population.size(); ++j) {
      const ConjunctiveQuery& a = population[i].query;
      const ConjunctiveQuery& b = population[j].query;
      if (fps[i] == fps[j]) {
        EXPECT_TRUE(IsomorphicCQs(a, b))
            << a.ToString() << " vs " << b.ToString();
      }
    }
  }
}

/// C6 vs C3 + C3: six binary atoms over six variables each, identical
/// degree sequences, indistinguishable by plain color refinement.
TEST(CanonicalTest, DistinguishesCycleSixFromTwoTriangles) {
  auto c6 = ParseQuery(
      "Q() :- R(X1,X2), R(X2,X3), R(X3,X4), R(X4,X5), R(X5,X6), R(X6,X1)");
  auto triangles = ParseQuery(
      "Q() :- R(X1,X2), R(X2,X3), R(X3,X1), R(Y1,Y2), R(Y2,Y3), R(Y3,Y1)");
  ASSERT_TRUE(c6.ok());
  ASSERT_TRUE(triangles.ok());
  ASSERT_FALSE(IsomorphicCQs(*c6, *triangles));
  EXPECT_NE(FingerprintCQ(*c6), FingerprintCQ(*triangles));
}

TEST(CanonicalTest, TgdFingerprintIsRenamingInvariantAndSplitAware) {
  auto tgds = ParseTgds(
      "A(X,Y), B(Y) -> C(X,Z).\n"
      "A(U,V), B(V) -> C(U,W).\n"
      "A(X,Y) -> B(Y), C(X,Z).\n"
      "A(X,Y), B(X) -> C(X,Z).");
  ASSERT_TRUE(tgds.ok()) << tgds.status().ToString();
  ASSERT_EQ(tgds->size(), 4u);
  const std::vector<Tgd>& t = tgds->tgds;
  // A renamed tgd keeps its key.
  EXPECT_EQ(FingerprintTgd(t[0]), FingerprintTgd(t[1]));
  EXPECT_EQ(FingerprintTgd(t[0]), FingerprintTgd(RenameTgd(t[0], "TR_")));
  // The same atoms split differently between body and head differ.
  EXPECT_NE(FingerprintTgd(t[0]), FingerprintTgd(t[2]));
  // So does a different join.
  EXPECT_NE(FingerprintTgd(t[0]), FingerprintTgd(t[3]));
}

TEST(CanonicalTest, ConstantsAreDistinguishedByName) {
  auto a = ParseQuery("Q(X) :- R(X, c1)");
  auto b = ParseQuery("Q(X) :- R(X, c2)");
  auto a2 = ParseQuery("Q(Y) :- R(Y, c1)");
  ASSERT_TRUE(a.ok() && b.ok() && a2.ok());
  EXPECT_NE(FingerprintCQ(*a), FingerprintCQ(*b));
  EXPECT_EQ(FingerprintCQ(*a), FingerprintCQ(*a2));
}

TEST(CanonicalTest, AnswerVariableOrderMatters) {
  auto ab = ParseQuery("Q(X,Y) :- R(X,Y)");
  auto ba = ParseQuery("Q(Y,X) :- R(X,Y)");
  ASSERT_TRUE(ab.ok() && ba.ok());
  // R(X,Y) with answer (X,Y) is not a renaming of R(X,Y) with (Y,X).
  EXPECT_NE(FingerprintCQ(*ab), FingerprintCQ(*ba));
}

TEST(CanonicalTest, SchemaFingerprintIsOrderInsensitive) {
  Schema s1;
  s1.Add(Predicate::Get("R", 2));
  s1.Add(Predicate::Get("P", 1));
  Schema s2;
  s2.Add(Predicate::Get("P", 1));
  s2.Add(Predicate::Get("R", 2));
  EXPECT_EQ(FingerprintSchema(s1), FingerprintSchema(s2));
  Schema s3 = s1;
  s3.Add(Predicate::Get("T", 3));
  EXPECT_NE(FingerprintSchema(s1), FingerprintSchema(s3));
}

}  // namespace
}  // namespace omqc
