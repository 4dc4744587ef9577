// Unit tests for the antichain 2WAPA emptiness engine
// (automata/emptiness.h): verdicts against handcrafted automata, the
// subsumption and memoization counters, budgets, and governor trips.
// Cross-engine agreement on randomized inputs lives in
// emptiness_agreement_test.cc.

#include "automata/emptiness.h"

#include <gtest/gtest.h>

#include <chrono>

#include "automata/downward.h"
#include "base/governor.h"
#include "core/guarded_automata.h"
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

/// Accepts iff every node carries label 0.
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
/// state accepts. Interns exactly `length` obligation sets.
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

TEST(EmptinessTest, NonEmptyReachability) {
  auto empty = DownwardEmptiness(Reach1(2));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_FALSE(*empty);
}

TEST(EmptinessTest, UnsatisfiableIntersectionIsEmpty) {
  // "some node has label 1" ∧ "every node has label 0" is contradictory.
  auto both = Intersect(Reach1(2), All0(2)).value();
  auto empty = DownwardEmptiness(both);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(*empty);
}

TEST(EmptinessTest, SatisfiableIntersection) {
  Twapa root1;
  root1.num_states = 1;
  root1.num_labels = 2;
  root1.initial_state = 0;
  root1.delta = [](int, int label) {
    return label == 1 ? Formula::True() : Formula::False();
  };
  auto both = Intersect(Reach1(2), root1).value();
  EXPECT_FALSE(DownwardEmptiness(both).value());
}

TEST(EmptinessTest, RejectsTwoWayAutomata) {
  Twapa two_way;
  two_way.num_states = 1;
  two_way.num_labels = 1;
  two_way.initial_state = 0;
  two_way.delta = [](int, int) { return Diamond(Move::kUp, 0); };
  auto result = DownwardEmptiness(two_way);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

TEST(EmptinessTest, RejectsSafetyMode) {
  Twapa safety = Complement(Reach1(2));
  auto result = DownwardEmptiness(safety);
  EXPECT_FALSE(result.ok());
}

TEST(EmptinessTest, SubsumedSetsAreNeverExpanded) {
  // δ(0) = (⟨*⟩1 ∧ [*]2) ∨ ⟨*⟩2 spawns the incomparable children {1,2}
  // and {2}; states 1 and 2 accept outright. The engine proves
  // {1,2} productive first (leaf) and must then resolve {2} ⊆ {1,2} by
  // antichain subsumption without expanding it.
  Twapa a;
  a.num_states = 3;
  a.num_labels = 1;
  a.initial_state = 0;
  a.mode = AcceptanceMode::kFiniteRuns;
  a.delta = [](int state, int) {
    if (state != 0) return Formula::True();
    return Formula::Or(
        Formula::And(Diamond(Move::kChild, 1), Box(Move::kChild, 2)),
        Diamond(Move::kChild, 2));
  };
  EmptinessStats stats;
  auto empty = DownwardEmptiness(a, DownwardOptions(), &stats);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_FALSE(*empty);
  EXPECT_EQ(stats.states_explored, 2u) << "{0} and {1,2} only";
  EXPECT_EQ(stats.states_subsumed, 1u) << "{2} must ride the antichain";
  EXPECT_GE(stats.antichain_size, 1u);
}

TEST(EmptinessTest, StatsAreRecorded) {
  auto both = Intersect(Reach1(2), All0(2)).value();
  EmptinessStats stats;
  ASSERT_TRUE(DownwardEmptiness(both, DownwardOptions(), &stats).value());
  EXPECT_GT(stats.states_explored, 0u);
  EXPECT_GE(stats.emptiness_rounds, 1u);
  EXPECT_GT(stats.dnf_cache_misses, 0u);
  // An empty language has no productive sets at all.
  EXPECT_EQ(stats.antichain_size, 0u);
}

TEST(EmptinessTest, MaxStatesBudget) {
  DownwardOptions options;
  options.max_states = 3;
  auto result = DownwardEmptiness(Chain(10), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(EmptinessTest, ExpiredGovernorDeadlineTrips) {
  ResourceGovernor governor;
  governor.set_deadline_after(std::chrono::nanoseconds(0));
  DownwardOptions options;
  options.governor = &governor;
  auto result = DownwardEmptiness(Chain(200), options);
  // The engine probes per expanded set, so a 200-set chain cannot finish
  // before the clock stride samples the expired deadline.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// ---- Prop. 25 composition over an explicit ΓS,l alphabet. ----

TEST(EmptinessTest, Prop25EmptinessOnGammaAlphabet) {
  Schema schema;
  schema.Add(Predicate::Get("r", 2));
  schema.Add(Predicate::Get("A", 1));
  auto alphabet = EnumerateGammaAlphabet(schema, 1, 1, 500000).value();
  Twapa consistency = ConsistencyAutomaton(alphabet);
  Twapa has_r = AtomPresenceAutomaton(alphabet, Predicate::Get("r", 2));
  auto c_and_r = Intersect(consistency, has_r).value();
  Twapa has_missing =
      AtomPresenceAutomaton(alphabet, Predicate::Get("missing", 1));
  auto c_and_missing = Intersect(consistency, has_missing).value();

  EmptinessStats stats;
  DownwardOptions options;
  options.max_states = 20000;
  auto nonempty = DownwardEmptiness(c_and_r, options, &stats);
  ASSERT_TRUE(nonempty.ok()) << nonempty.status().ToString();
  EXPECT_FALSE(*nonempty);

  auto is_empty = DownwardEmptiness(c_and_missing, options, &stats);
  ASSERT_TRUE(is_empty.ok()) << is_empty.status().ToString();
  EXPECT_TRUE(*is_empty);
  // The empty case explores to the fixpoint; obligation sets share
  // states, so the per-(state,label) memo must see reuse there.
  EXPECT_GT(stats.dnf_cache_hits, 0u);
}

}  // namespace
}  // namespace omqc
