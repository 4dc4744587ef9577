// Round-trip: the printed form of generated ontologies and queries parses
// back to an object with the same structure (cache-key equality is the
// yardstick — printing/parsing may rename apart, but never change
// structure).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/string_util.h"
#include "cache/canonical.h"
#include "generators/families.h"
#include "logic/substitution.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

std::string SerializeTgds(const TgdSet& tgds) {
  return JoinMapped(tgds.tgds, "\n",
                    [](const Tgd& tgd) { return tgd.ToString() + "."; });
}

TEST(ParserRoundTripTest, GeneratedOmqsSurvivePrintParse) {
  const TgdClass classes[] = {TgdClass::kLinear, TgdClass::kNonRecursive,
                              TgdClass::kSticky, TgdClass::kGuarded,
                              TgdClass::kFull};
  size_t round_tripped = 0;
  for (TgdClass target : classes) {
    for (uint32_t seed = 0; seed < 20; ++seed) {
      RandomOmqConfig config;
      config.target = target;
      config.seed = seed;
      config.query_atoms = 2 + static_cast<int>(seed % 3);
      Omq omq = MakeRandomOmq(config);

      auto tgds = ParseTgds(SerializeTgds(omq.tgds));
      ASSERT_TRUE(tgds.ok()) << tgds.status().ToString() << "\nsource:\n"
                             << SerializeTgds(omq.tgds);
      EXPECT_EQ(FingerprintTgdSet(omq.tgds), FingerprintTgdSet(*tgds))
          << "tgd set changed under print/parse:\n"
          << SerializeTgds(omq.tgds);

      auto query = ParseQuery(omq.query.ToString());
      ASSERT_TRUE(query.ok()) << query.status().ToString() << "\nsource: "
                              << omq.query.ToString();
      EXPECT_EQ(FingerprintCQ(omq.query), FingerprintCQ(*query))
          << "query changed under print/parse: " << omq.query.ToString();
      ++round_tripped;
    }
  }
  EXPECT_EQ(round_tripped, 100u);
}

TEST(ParserRoundTripTest, ConstantsAndBooleanQueriesSurvive) {
  const char* cases[] = {
      "q(X) :- R(X, c1), P(c2)",
      "q() :- R(X, Y), R(Y, X)",
      "q(X,Y) :- R(X, Y)",
      "q() :- true",
  };
  for (const char* text : cases) {
    auto first = ParseQuery(text);
    ASSERT_TRUE(first.ok()) << text;
    auto second = ParseQuery(first->ToString());
    ASSERT_TRUE(second.ok()) << first->ToString();
    EXPECT_EQ(FingerprintCQ(*first), FingerprintCQ(*second)) << text;
  }
}

TEST(ParserRoundTripTest, NumberedVariableNamesSurvive) {
  // Variables renamed X0, X1, ... in first-occurrence order print and
  // parse back as variables, not constants, with the same key and text.
  RandomOmqConfig config;
  config.target = TgdClass::kSticky;
  config.seed = 7;
  Omq omq = MakeRandomOmq(config);
  Substitution rename;
  std::vector<Term> vars = omq.query.Variables();
  ASSERT_FALSE(vars.empty());
  for (size_t i = 0; i < vars.size(); ++i) {
    rename.Bind(vars[i], Term::Variable(StrCat("X", i)));
  }
  ConjunctiveQuery numbered(rename.Apply(omq.query.answer_vars),
                            rename.Apply(omq.query.body));
  auto reparsed = ParseQuery(numbered.ToString());
  ASSERT_TRUE(reparsed.ok()) << numbered.ToString();
  // A name read as a constant would drop out of the variable list.
  EXPECT_EQ(reparsed->Variables(), numbered.Variables());
  EXPECT_EQ(numbered.Variables().size(), vars.size());
  EXPECT_EQ(FingerprintCQ(*reparsed), FingerprintCQ(numbered));
  EXPECT_EQ(reparsed->ToString(), numbered.ToString());
}

}  // namespace
}  // namespace omqc
