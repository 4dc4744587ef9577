// Randomized cross-engine agreement: the antichain engine
// (DownwardEmptiness) must return the exact verdict of the reference
// subset-construction oracle (DownwardIsEmpty, automata/downward.h) on
// every seed — both on random downward 2WAPAs and on the Prop. 25
// automata composed from the ΓS,l alphabets of seeded guarded OMQs. Each
// engine is called by name, so the sanitizer jobs run both.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "automata/downward.h"
#include "automata/emptiness.h"
#include "core/guarded_automata.h"
#include "generators/families.h"

namespace omqc {
namespace {

/// A random positive formula over child-moving atoms. Biased toward
/// small conjunctions so a healthy fraction of the automata are
/// non-empty and obligation sets actually grow.
Formula RandomFormula(std::mt19937& rng, int num_states, int depth) {
  const uint32_t roll = rng() % 10;
  if (depth > 0 && roll < 2) {
    return Formula::And(RandomFormula(rng, num_states, depth - 1),
                        RandomFormula(rng, num_states, depth - 1));
  }
  if (depth > 0 && roll < 5) {
    return Formula::Or(RandomFormula(rng, num_states, depth - 1),
                       RandomFormula(rng, num_states, depth - 1));
  }
  if (roll == 5) return Formula::True();
  if (roll == 6) return Formula::False();
  const int state = static_cast<int>(rng() % static_cast<uint32_t>(num_states));
  return (rng() % 3 == 0) ? Box(Move::kChild, state)
                          : Diamond(Move::kChild, state);
}

Twapa RandomDownwardTwapa(uint32_t seed) {
  std::mt19937 rng(seed);
  const int num_states = 1 + static_cast<int>(rng() % 5);
  const int num_labels = 1 + static_cast<int>(rng() % 4);
  std::vector<std::vector<Formula>> table;
  table.reserve(static_cast<size_t>(num_states));
  for (int q = 0; q < num_states; ++q) {
    std::vector<Formula> row;
    for (int label = 0; label < num_labels; ++label) {
      row.push_back(RandomFormula(rng, num_states, 2));
    }
    table.push_back(std::move(row));
  }
  Twapa a;
  a.num_states = num_states;
  a.num_labels = num_labels;
  a.initial_state = 0;
  a.mode = AcceptanceMode::kFiniteRuns;
  a.delta = [table](int state, int label) {
    return table[static_cast<size_t>(state)][static_cast<size_t>(label)];
  };
  return a;
}

void ExpectAgreement(const Twapa& automaton, size_t max_states,
                     const std::string& context) {
  DownwardOptions options;
  options.max_states = max_states;
  options.max_branching = 64;
  auto oracle = DownwardIsEmpty(automaton, options);
  ASSERT_TRUE(oracle.ok()) << context << ": " << oracle.status().ToString();
  auto fast = DownwardEmptiness(automaton, options);
  ASSERT_TRUE(fast.ok()) << context << ": " << fast.status().ToString();
  EXPECT_EQ(*fast, *oracle) << context << ": verdicts diverge";
}

TEST(EmptinessAgreementTest, RandomDownwardAutomata) {
  for (uint32_t seed = 0; seed < 80; ++seed) {
    ExpectAgreement(RandomDownwardTwapa(seed), 100000,
                    "random twapa seed=" + std::to_string(seed));
  }
}

TEST(EmptinessAgreementTest, SeededGuardedOmqGammaAutomata) {
  for (uint32_t seed = 0; seed < 10; ++seed) {
    RandomOmqConfig config;
    config.target = TgdClass::kGuarded;
    config.num_predicates = 3;
    config.max_arity = 2;
    config.seed = seed;
    Omq omq = MakeRandomOmq(config);
    Schema schema = omq.CombinedSchema();
    auto alphabet = EnumerateGammaAlphabet(schema, 1, 1, 500000);
    if (!alphabet.ok()) continue;  // atoms-per-label cap on unlucky schemas
    Twapa consistency = ConsistencyAutomaton(*alphabet);
    // One emptiness question per schema predicate (the witness language
    // of "some R-atom appears"), plus a predicate absent from the schema
    // so the empty verdict is exercised on every seed.
    std::vector<Predicate> probes(schema.predicates().begin(),
                                  schema.predicates().end());
    probes.push_back(Predicate::Get("absent_from_schema", 1));
    for (const Predicate& pred : probes) {
      auto automaton =
          Intersect(consistency, AtomPresenceAutomaton(*alphabet, pred));
      ASSERT_TRUE(automaton.ok()) << automaton.status().ToString();
      ExpectAgreement(*automaton, 20000,
                      "guarded omq seed=" + std::to_string(seed) +
                          " pred=" + pred.ToString());
    }
  }
}

}  // namespace
}  // namespace omqc
