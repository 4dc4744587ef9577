// Tests for the downward 2WAPA → NTA conversion and the resulting exact
// emptiness decision — the toy-scale realization of Prop. 25's
// "containment iff L(A) = ∅": handcrafted verdicts, budgets and governor
// trips, and an independent oracle (bounded tree search) on random
// automata.

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <string>
#include <vector>

#include "automata/downward.h"
#include "base/governor.h"
#include "core/guarded_automata.h"
#include "generators/families.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

/// Accepts iff some descendant (or the node itself) carries label 1.
Twapa Reach1(int num_labels) {
  Twapa a;
  a.num_states = 1;
  a.num_labels = num_labels;
  a.initial_state = 0;
  a.mode = AcceptanceMode::kFiniteRuns;
  a.delta = [](int, int label) {
    return label == 1 ? Formula::True() : Diamond(Move::kChild, 0);
  };
  return a;
}

/// Accepts iff every node carries label 0 (a downward safety check that
/// still has finite-runs acceptance on finite trees).
Twapa All0(int num_labels) {
  Twapa a;
  a.num_states = 1;
  a.num_labels = num_labels;
  a.initial_state = 0;
  a.mode = AcceptanceMode::kFiniteRuns;
  a.delta = [](int, int label) {
    return label == 0 ? Box(Move::kChild, 0) : Formula::False();
  };
  return a;
}

/// A one-label chain: state i requires a child in state i+1; the last
/// state accepts. Reaches exactly `length` obligation sets.
Twapa Chain(int length) {
  Twapa a;
  a.num_states = length;
  a.num_labels = 1;
  a.initial_state = 0;
  a.mode = AcceptanceMode::kFiniteRuns;
  a.delta = [length](int state, int) {
    return state == length - 1 ? Formula::True()
                               : Diamond(Move::kChild, state + 1);
  };
  return a;
}

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

TEST(DownwardTest, NonEmptyReachability) {
  auto empty = DownwardIsEmpty(Reach1(2));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_FALSE(*empty);
}

TEST(DownwardTest, UnsatisfiableIntersectionIsEmpty) {
  // "some node has label 1" ∧ "every node has label 0" is contradictory.
  auto both = Intersect(Reach1(2), All0(2)).value();
  auto empty = DownwardIsEmpty(both);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(*empty);
}

TEST(DownwardTest, SatisfiableIntersection) {
  // "some node has label 1" ∧ "root has label 1" is satisfiable.
  Twapa root1;
  root1.num_states = 1;
  root1.num_labels = 2;
  root1.initial_state = 0;
  root1.delta = [](int, int label) {
    return label == 1 ? Formula::True() : Formula::False();
  };
  auto both = Intersect(Reach1(2), root1).value();
  EXPECT_FALSE(DownwardIsEmpty(both).value());
}

TEST(DownwardTest, NtaWitnessesAreAcceptedByTheTwapa) {
  Twapa a = Reach1(3);
  Nta nta = DownwardToNta(a).value();
  EXPECT_FALSE(IsEmpty(nta));
  // Cross-check on concrete trees: every small tree accepted by the NTA
  // is accepted by the 2WAPA (the conversion is witness-sound).
  LabeledTree leaf1 = LabeledTree::Leaf(1);
  EXPECT_TRUE(Accepts(nta, leaf1));
  EXPECT_TRUE(Accepts(a, leaf1));
  LabeledTree chain = LabeledTree::Leaf(0);
  chain.AddChild(0, 1);
  EXPECT_TRUE(Accepts(nta, chain));
  EXPECT_TRUE(Accepts(a, chain));
  LabeledTree no1 = LabeledTree::Leaf(0);
  EXPECT_FALSE(Accepts(nta, no1));
  EXPECT_FALSE(Accepts(a, no1));
}

TEST(DownwardTest, RejectsTwoWayAutomata) {
  Twapa two_way;
  two_way.num_states = 1;
  two_way.num_labels = 1;
  two_way.initial_state = 0;
  two_way.delta = [](int, int) { return Diamond(Move::kUp, 0); };
  auto result = DownwardIsEmpty(two_way);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

TEST(DownwardTest, RejectsSafetyMode) {
  Twapa safety = Complement(Reach1(2));
  auto result = DownwardIsEmpty(safety);
  EXPECT_FALSE(result.ok());
}

TEST(DownwardTest, MaxStatesBudget) {
  DownwardOptions options;
  options.max_states = 3;
  auto result = DownwardIsEmpty(Chain(10), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(DownwardTest, MaxBranchingRejectsWideDisjuncts) {
  // δ(0) = ⟨*⟩1 ∧ ⟨*⟩2 ∧ ⟨*⟩3 needs three children in one rule.
  Twapa a;
  a.num_states = 4;
  a.num_labels = 1;
  a.initial_state = 0;
  a.mode = AcceptanceMode::kFiniteRuns;
  a.delta = [](int state, int) {
    if (state != 0) return Formula::True();
    return Formula::AndAll({Diamond(Move::kChild, 1),
                            Diamond(Move::kChild, 2),
                            Diamond(Move::kChild, 3)});
  };
  DownwardOptions options;
  options.max_branching = 2;
  auto result = DownwardIsEmpty(a, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  options.max_branching = 3;
  EXPECT_FALSE(DownwardIsEmpty(a, options).value());
}

TEST(DownwardTest, ExpiredGovernorDeadlineTrips) {
  ResourceGovernor governor;
  governor.set_deadline_after(std::chrono::nanoseconds(0));
  DownwardOptions options;
  options.governor = &governor;
  auto result = DownwardIsEmpty(Chain(200), options);
  // The conversion probes per worklist item and per label, so a 200-set
  // chain cannot finish before the clock stride samples the expired
  // deadline.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// ---- An independent oracle: bounded search for an accepted tree. ----

TEST(DownwardTest, RandomAutomataAgreeWithBoundedTreeSearch) {
  // On these automata (at most 5 states, formulas of depth 2) every
  // non-empty language has a witness of at most 4 nodes and branching 2,
  // so the bounded search decides emptiness exactly and must match.
  int nonempty = 0;
  for (uint32_t seed = 0; seed < 80; ++seed) {
    Twapa a = RandomDownwardTwapa(seed);
    auto empty = DownwardIsEmpty(a);
    ASSERT_TRUE(empty.ok()) << "seed=" << seed << ": "
                            << empty.status().ToString();
    const bool found = FindAcceptedTree(a, /*max_nodes=*/4,
                                        /*max_branching=*/2)
                           .has_value();
    EXPECT_EQ(found, !*empty) << "seed=" << seed;
    if (!*empty) ++nonempty;
  }
  // Both verdicts are exercised.
  EXPECT_EQ(nonempty, 70);
}

TEST(DownwardTest, SeededGuardedOmqGammaAutomata) {
  int seeds_checked = 0;
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
    ++seeds_checked;
    Twapa consistency = ConsistencyAutomaton(*alphabet);
    // One emptiness question per schema predicate (the witness language
    // of "some R-atom appears"), plus a predicate absent from the schema
    // so the empty verdict is exercised on every seed.
    std::vector<Predicate> probes(schema.predicates().begin(),
                                  schema.predicates().end());
    const Predicate absent = Predicate::Get("absent_from_schema", 1);
    probes.push_back(absent);
    for (const Predicate& pred : probes) {
      const std::string context = "guarded omq seed=" +
                                  std::to_string(seed) +
                                  " pred=" + pred.ToString();
      auto automaton =
          Intersect(consistency, AtomPresenceAutomaton(*alphabet, pred));
      ASSERT_TRUE(automaton.ok()) << automaton.status().ToString();
      DownwardOptions options;
      options.max_states = 20000;
      options.max_branching = 64;
      auto empty = DownwardIsEmpty(*automaton, options);
      ASSERT_TRUE(empty.ok()) << context << ": " << empty.status().ToString();
      if (pred == absent) {
        EXPECT_TRUE(*empty) << context;
      }
    }
  }
  EXPECT_GT(seeds_checked, 0);
}

// ---- Prop. 25 at toy scale, now with a real emptiness decision. ----

TEST(DownwardTest, Prop25EmptinessOnGammaAlphabet) {
  Schema schema;
  schema.Add(Predicate::Get("r", 2));
  schema.Add(Predicate::Get("A", 1));
  auto alphabet = EnumerateGammaAlphabet(schema, 1, 1, 500000).value();
  Twapa consistency = ConsistencyAutomaton(alphabet);
  Twapa has_r = AtomPresenceAutomaton(alphabet, Predicate::Get("r", 2));

  // Consistent trees containing an r-atom exist: non-empty.
  auto c_and_r = Intersect(consistency, has_r).value();
  DownwardOptions options;
  options.max_states = 20000;
  auto nonempty = DownwardIsEmpty(c_and_r, options);
  ASSERT_TRUE(nonempty.ok()) << nonempty.status().ToString();
  EXPECT_FALSE(*nonempty);

  // Consistent trees containing an atom of an absent predicate do not.
  Twapa has_missing =
      AtomPresenceAutomaton(alphabet, Predicate::Get("missing", 1));
  auto c_and_missing = Intersect(consistency, has_missing).value();
  auto is_empty = DownwardIsEmpty(c_and_missing, options);
  ASSERT_TRUE(is_empty.ok()) << is_empty.status().ToString();
  EXPECT_TRUE(*is_empty);
}

}  // namespace
}  // namespace omqc
