// Tests for OMQ containment (Secs. 3-6): the small-witness engine on the
// UCQ-rewritable classes, the guarded semi-procedure and cross-language
// combinations.

#include <gtest/gtest.h>

#include "base/governor.h"
#include "base/string_util.h"
#include "core/containment.h"
#include "core/frontend.h"
#include "soak/scenario.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

Schema S(std::initializer_list<std::pair<const char*, int>> preds) {
  Schema s;
  for (const auto& [name, arity] : preds) {
    s.Add(Predicate::Get(name, arity));
  }
  return s;
}

Omq MakeOmq(Schema schema, const std::string& tgds,
            const std::string& query) {
  return Omq{std::move(schema), ParseTgds(tgds).value(),
             ParseQuery(query).value()};
}

// ---------- No ontology: classical (U)CQ containment. ----------

TEST(ContainmentTest, PlainCQContainment) {
  Schema schema = S({{"R", 2}});
  Omq longer = MakeOmq(schema, "", "Q(X) :- R(X,Y), R(Y,Z)");
  Omq shorter = MakeOmq(schema, "", "Q(X) :- R(X,Y)");
  auto forward = CheckContainment(longer, shorter);
  ASSERT_TRUE(forward.ok()) << forward.status().ToString();
  EXPECT_EQ(forward->outcome, ContainmentOutcome::kContained);

  auto backward = CheckContainment(shorter, longer);
  ASSERT_TRUE(backward.ok());
  EXPECT_EQ(backward->outcome, ContainmentOutcome::kNotContained);
  ASSERT_TRUE(backward->witness.has_value());
  // The witness is a counterexample: one R edge, no 2-path.
  EXPECT_EQ(backward->witness->database.size(), 1u);
}

// ---------- Linear LHS (Sec. 4.1). ----------

TEST(ContainmentTest, LinearOntologyMakesQueriesComparable) {
  // Σ: T ⊑ P. Q1 asks for T(x), Q2 for P(x): Q1 ⊆ Q2 but not conversely.
  Schema schema = S({{"P", 1}, {"T", 1}});
  Omq q1 = MakeOmq(schema, "T(X) -> P(X).", "Q(X) :- T(X)");
  Omq q2 = MakeOmq(schema, "T(X) -> P(X).", "Q(X) :- P(X)");
  EXPECT_EQ(CheckContainment(q1, q2)->outcome,
            ContainmentOutcome::kContained);
  EXPECT_EQ(CheckContainment(q2, q1)->outcome,
            ContainmentOutcome::kNotContained);
}

TEST(ContainmentTest, PaperExample1Equivalence) {
  // From Example 1: Q = (S, Σ, ∃y R(x,y) ∧ P(y)) is equivalent to the
  // rewriting P(x) ∨ T(x) — here checked against the OMQ with query P(x),
  // which contains Q... and conversely Q covers P(x) because P(x) chases
  // to R(x,·) ∧ P(·).
  Schema schema = S({{"P", 1}, {"T", 1}});
  const std::string sigma =
      "P(X) -> R(X,Y). R(X,Y) -> P(Y). T(X) -> P(X).";
  Omq q = MakeOmq(schema, sigma, "Q(X) :- R(X,Y), P(Y)");
  Omq p = MakeOmq(schema, sigma, "Q(X) :- P(X)");
  auto equivalence = CheckEquivalence(q, p);
  ASSERT_TRUE(equivalence.ok());
  EXPECT_EQ(equivalence->outcome, ContainmentOutcome::kContained);
}

TEST(ContainmentTest, DifferentOntologiesSameQuery) {
  // Q1's ontology derives more: containment holds one way only.
  Schema schema = S({{"A", 1}, {"B", 1}});
  Omq q1 = MakeOmq(schema, "A(X) -> P(X).", "Q(X) :- P(X)");
  Omq q2 = MakeOmq(schema, "A(X) -> P(X). B(X) -> P(X).", "Q(X) :- P(X)");
  EXPECT_EQ(CheckContainment(q1, q2)->outcome,
            ContainmentOutcome::kContained);
  EXPECT_EQ(CheckContainment(q2, q1)->outcome,
            ContainmentOutcome::kNotContained);
}

TEST(ContainmentTest, WitnessSizeObeysProposition12) {
  // Linear LHS: every candidate witness has at most |q1| atoms.
  Schema schema = S({{"R", 2}, {"P", 1}});
  Omq q1 = MakeOmq(schema, "P(X) -> R(X,Y).",
                   "Q(X) :- R(X,Y), R(Y,Z)");
  Omq q2 = MakeOmq(schema, "", "Q(X) :- P(X)");
  auto result = CheckContainment(q1, q2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ContainmentOutcome::kNotContained);
  EXPECT_LE(result->max_witness_size, q1.query.size());
}

// ---------- Evaluation vs containment sanity (Props. 5/6 use these). ----

TEST(ContainmentTest, ContainmentImpliesAnswerInclusion) {
  Schema schema = S({{"A", 1}, {"R", 2}});
  Omq q1 = MakeOmq(schema, "A(X) -> B(X).", "Q(X) :- B(X), R(X,Y)");
  Omq q2 = MakeOmq(schema, "A(X) -> B(X).", "Q(X) :- B(X)");
  ASSERT_EQ(CheckContainment(q1, q2)->outcome,
            ContainmentOutcome::kContained);
}

// ---------- Sticky LHS (Sec. 4.3). ----------

TEST(ContainmentTest, StickyLhs) {
  Schema schema = S({{"R", 2}, {"P", 2}});
  const std::string sigma = "R(X,Y), P(X,Z) -> T(X,Y,Z).";
  Omq q1 = MakeOmq(schema, sigma, "Q(X) :- T(X,Y,Z)");
  Omq q2 = MakeOmq(schema, sigma, "Q(X) :- R(X,Y)");
  EXPECT_EQ(CheckContainment(q1, q2)->outcome,
            ContainmentOutcome::kContained);
  EXPECT_EQ(CheckContainment(q2, q1)->outcome,
            ContainmentOutcome::kNotContained);
}

// ---------- Non-recursive LHS (Sec. 4.2). ----------

TEST(ContainmentTest, NonRecursiveLhs) {
  Schema schema = S({{"E", 2}});
  Omq q1 = MakeOmq(schema,
                   "E(X,Y), E(Y,Z) -> Path2(X,Z)."
                   "Path2(X,Z), E(Z,W) -> Path3(X,W).",
                   "Q(X) :- Path3(X,Y)");
  Omq q2 = MakeOmq(schema, "E(X,Y), E(Y,Z) -> Path2(X,Z).",
                   "Q(X) :- Path2(X,Y)");
  EXPECT_EQ(CheckContainment(q1, q2)->outcome,
            ContainmentOutcome::kContained);
  EXPECT_EQ(CheckContainment(q2, q1)->outcome,
            ContainmentOutcome::kNotContained);
}

// ---------- Guarded LHS (Sec. 5). ----------

TEST(ContainmentTest, GuardedLhsContainedSaturates) {
  // Σ: A(x) ∧ R(x,y) → A(y) (guarded, recursive). With q = ∃x A(x) the
  // pruned rewriting saturates: every deeper disjunct is subsumed by A(x).
  Schema schema = S({{"A", 1}, {"R", 2}});
  const std::string sigma = "R(X,Y), A(X) -> A(Y).";
  Omq q1 = MakeOmq(schema, sigma, "Q() :- A(X)");
  Omq q2 = MakeOmq(schema, sigma, "Q() :- A(Y)");
  auto result = CheckContainment(q1, q2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ContainmentOutcome::kContained);
}

TEST(ContainmentTest, GuardedLhsRefutation) {
  // Reachability of B from an A-node along R: contained in "some B", but
  // not in "some C".
  Schema schema = S({{"A", 1}, {"B", 1}, {"C", 1}, {"R", 2}});
  const std::string sigma = "R(X,Y), A(X) -> A(Y).";
  Omq q1 = MakeOmq(schema, sigma, "Q() :- A(X), B(X)");
  Omq q2 = MakeOmq(schema, sigma, "Q() :- C(X)");
  ContainmentOptions options;
  options.rewrite.max_queries = 200;
  auto result = CheckContainment(q1, q2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ContainmentOutcome::kNotContained);
  ASSERT_TRUE(result->witness.has_value());
}

TEST(ContainmentTest, GuardedLhsUnknownAtBudget) {
  // q = A(c) for a constant c: the perfect rewriting is an infinite
  // R-path family with no subsumptions; the engine reports kUnknown.
  Schema schema = S({{"A", 1}, {"R", 2}});
  const std::string sigma = "R(X,Y), A(Y) -> A(X).";
  Omq q1 = MakeOmq(schema, sigma, "Q() :- A(c)");
  // Q2 is literally the same OMQ, so containment holds — but the engine
  // cannot certify it: the enumeration never saturates.
  Omq q2 = MakeOmq(schema, sigma, "Q() :- A(c)");
  ContainmentOptions options;
  options.rewrite.max_queries = 60;
  auto result = CheckContainment(q1, q2, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ContainmentOutcome::kUnknown);
}

// ---------- Cross-language combinations (Sec. 6). ----------

TEST(ContainmentTest, LinearInGuarded) {
  Schema schema = S({{"A", 1}, {"R", 2}, {"B", 1}});
  Omq linear = MakeOmq(schema, "A(X) -> T(X).", "Q(X) :- T(X)");
  Omq guarded = MakeOmq(schema, "R(X,Y), A(X) -> T(Y). A(X) -> T(X).",
                        "Q(X) :- T(X)");
  auto result = CheckContainment(linear, guarded);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ContainmentOutcome::kContained);
}

TEST(ContainmentTest, StickyInLinear) {
  Schema schema = S({{"R", 2}, {"P", 2}});
  Omq sticky = MakeOmq(schema, "R(X,Y), P(X,Z) -> T(X). T(X) -> U(X).",
                       "Q(X) :- U(X)");
  Omq linear = MakeOmq(schema, "R(X,Y) -> W(X).", "Q(X) :- W(X)");
  auto result = CheckContainment(sticky, linear);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ContainmentOutcome::kContained);
}

// ---------- UCQ OMQs. ----------

TEST(ContainmentTest, UcqOmqContainment) {
  Schema schema = S({{"A", 1}, {"B", 1}});
  UcqOmq q1{schema, ParseTgds("A(X) -> P(X).").value(),
            ParseUCQ("Q(X) :- P(X).").value()};
  UcqOmq q2{schema, ParseTgds("A(X) -> P(X). B(X) -> P(X).").value(),
            ParseUCQ("Q(X) :- P(X).").value()};
  auto result = CheckUcqOmqContainment(q1, q2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome, ContainmentOutcome::kContained);
  auto backward = CheckUcqOmqContainment(q2, q1);
  ASSERT_TRUE(backward.ok());
  EXPECT_EQ(backward->outcome, ContainmentOutcome::kNotContained);
}

TEST(ContainmentTest, ContainmentInPlainUcq) {
  Schema schema = S({{"A", 1}, {"R", 2}});
  Omq q1 = MakeOmq(schema, "A(X) -> R(X,Y).", "Q() :- R(X,Y)");
  UnionOfCQs ucq = ParseUCQ("Q() :- A(X). Q() :- R(X,Y).").value();
  auto result = CheckContainmentInUcq(q1, ucq);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ContainmentOutcome::kContained);

  UnionOfCQs smaller = ParseUCQ("Q() :- A(X).").value();
  auto refuted = CheckContainmentInUcq(q1, smaller);
  ASSERT_TRUE(refuted.ok());
  EXPECT_EQ(refuted->outcome, ContainmentOutcome::kNotContained);
}

TEST(ContainmentTest, UcqRhsIgnoresDisjunctOrder) {
  // Σ2 is guarded and neither linear, sticky nor non-recursive: its chase
  // never saturates, so the S(X) disjunct can never be refuted. The
  // R(X,Y) disjunct matches the frozen candidate outright, so the
  // candidate is in the RHS whichever disjunct comes first.
  Schema schema = S({{"R", 2}, {"A", 1}, {"S", 1}});
  UcqOmq q1{schema, TgdSet(), ParseUCQ("Q() :- R(X,Y), A(X), A(Y).").value()};
  const TgdSet sigma2 =
      ParseTgds("R(X,Y), A(X), A(Y) -> R(Y,Z), A(Z).").value();
  for (const char* rhs : {"Q() :- S(X). Q() :- R(X,Y).",
                          "Q() :- R(X,Y). Q() :- S(X)."}) {
    UcqOmq q2{schema, sigma2, ParseUCQ(rhs).value()};
    auto result = CheckUcqOmqContainment(q1, q2);
    ASSERT_TRUE(result.ok()) << rhs << ": " << result.status().ToString();
    EXPECT_EQ(result->outcome, ContainmentOutcome::kContained)
        << rhs << ": " << result->detail;
  }
}

// ---------- Multi-disjunct enumeration. ----------

/// A chain CQ Q(X0) :- pred(X0,X1), ..., pred(X_{len-1},X_len).
std::string Chain(const std::string& pred, int len) {
  std::string text = "Q(X0) :- ";
  for (int i = 0; i < len; ++i) {
    if (i > 0) text += ", ";
    text += pred + "(X" + std::to_string(i) + ",X" + std::to_string(i + 1) +
            ")";
  }
  return text;
}

TEST(ContainmentTest, LinearChainChecksEveryDisjunct) {
  // Every Conn atom rewrites to Edge or stays: 2^4 disjuncts, each an
  // independent RHS check that must fail to refute.
  const char kSigma[] = "Edge(X,Y) -> Conn(X,Y).";
  Schema schema = S({{"Edge", 2}, {"Conn", 2}});
  Omq q1 = MakeOmq(schema, kSigma, Chain("Conn", 4));
  Omq q2 = MakeOmq(schema, kSigma, Chain("Conn", 4));
  auto result = CheckContainment(q1, q2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome, ContainmentOutcome::kContained);
  EXPECT_GT(result->candidates_checked, 1u);
  EXPECT_EQ(result->stats.disjuncts_checked, result->candidates_checked);
  EXPECT_EQ(result->stats.witnesses_rejected, result->candidates_checked);
  EXPECT_GE(result->stats.hom.searches, result->candidates_checked);
  EXPECT_GT(result->stats.rewrite.queries_generated, 0u);
}

TEST(ContainmentTest, FirstRefutingDisjunctStopsTheEnumeration) {
  // The rewriting of P(x) is {P(x), T(x), U(x)}; its first disjunct P(x)
  // already refutes containment in T(x), so no further candidate is
  // checked and the witness is that disjunct's frozen body.
  const char kSigma[] = "T(X) -> P(X). U(X) -> P(X).";
  Schema schema = S({{"P", 1}, {"T", 1}, {"U", 1}});
  Omq q1 = MakeOmq(schema, kSigma, "Q(X) :- P(X)");
  Omq q2 = MakeOmq(schema, kSigma, "Q(X) :- T(X)");
  auto result = CheckContainment(q1, q2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome, ContainmentOutcome::kNotContained);
  EXPECT_EQ(result->candidates_checked, 1u);
  ASSERT_TRUE(result->witness.has_value());
  ASSERT_EQ(result->witness->database.size(), 1u);
  EXPECT_TRUE(result->witness->database.InducedSchema().Contains(
      Predicate::Get("P", 1)));

  // Same inputs, same counterexample up to the fresh names freezing
  // invents: the witness never depends on timing.
  auto again = CheckContainment(q1, q2);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again->witness.has_value());
  EXPECT_EQ(PrettifiedCopy(again->witness->database).ToString(),
            PrettifiedCopy(result->witness->database).ToString());
}

// ---------- Governance: the caller's governor is the only one. ----------

// Guarded and recursive on the left: the rewriting of P(c) is the infinite
// chain family R(c,y1),...,R(yn-1,yn),P(yn). The right-hand side covers
// chains of length up to 2, so the first length-3 chain refutes and only
// the refutation stops the enumeration.
struct GuardedChainPair {
  UcqOmq lhs;
  UcqOmq rhs;
};

GuardedChainPair MakeGuardedChainPair() {
  Schema schema = S({{"R", 2}, {"P", 1}});
  return GuardedChainPair{
      UcqOmq{schema, ParseTgds("R(X,Y), P(Y) -> P(X).").value(),
             UnionOfCQs{{ParseQuery("Q() :- P(c)").value()}}},
      UcqOmq{schema, TgdSet{},
             UnionOfCQs{{ParseQuery("Q() :- P(c)").value(),
                         ParseQuery("Q() :- R(c,Y), P(Y)").value(),
                         ParseQuery("Q() :- R(c,Y), R(Y,Z), P(Z)").value()}}}};
}

TEST(ContainmentTest, UngovernedRequestMakesNoGovernorChecks) {
  const char kSigma[] = "Edge(X,Y) -> Conn(X,Y).";
  Schema schema = S({{"Edge", 2}, {"Conn", 2}});
  Omq chain = MakeOmq(schema, kSigma, Chain("Conn", 4));
  auto contained = CheckContainment(chain, chain);
  ASSERT_TRUE(contained.ok()) << contained.status().ToString();
  EXPECT_EQ(contained->outcome, ContainmentOutcome::kContained);
  EXPECT_GT(contained->candidates_checked, 1u);
  EXPECT_EQ(contained->stats.governor.checks, 0u);

  GuardedChainPair pair = MakeGuardedChainPair();
  auto refuted = CheckUcqOmqContainment(pair.lhs, pair.rhs);
  ASSERT_TRUE(refuted.ok()) << refuted.status().ToString();
  EXPECT_EQ(refuted->outcome, ContainmentOutcome::kNotContained);
  EXPECT_EQ(refuted->stats.governor.checks, 0u);
}

TEST(ContainmentTest, RefutationLeavesTheCallersGovernorUntripped) {
  GuardedChainPair pair = MakeGuardedChainPair();
  ResourceGovernor governor;
  ContainmentOptions options;
  options.governor = &governor;
  auto governed = CheckUcqOmqContainment(pair.lhs, pair.rhs, options);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  EXPECT_EQ(governed->outcome, ContainmentOutcome::kNotContained);
  EXPECT_TRUE(governed->detail.empty()) << governed->detail;
  EXPECT_FALSE(governor.tripped());
  EXPECT_EQ(governor.counters().cancel_trips, 0u);
  EXPECT_GT(governor.counters().checks, 0u);
  EXPECT_EQ(governed->stats.governor.checks, governor.counters().checks);

  // The fourth disjunct refutes, and the enumeration admits nothing
  // after it.
  EXPECT_EQ(governed->candidates_checked, 4u);
  const XRewriteStats& rewrite = governed->stats.rewrite;
  EXPECT_EQ(rewrite.queries_generated, 4u);
  EXPECT_EQ(rewrite.rewriting_steps, 3u);
  EXPECT_EQ(rewrite.factorization_steps, 0u);
  EXPECT_EQ(rewrite.dedup_hits, 0u);
  EXPECT_EQ(rewrite.subsumption_checks, 3u);
  EXPECT_EQ(rewrite.subsumption_prunes, 0u);
  EXPECT_EQ(rewrite.minimize_checks, 3u);

  // Governing a request never changes how far it enumerates.
  auto ungoverned = CheckUcqOmqContainment(pair.lhs, pair.rhs);
  ASSERT_TRUE(ungoverned.ok());
  EXPECT_EQ(ungoverned->candidates_checked, governed->candidates_checked);
  EXPECT_EQ(ungoverned->stats.rewrite.queries_generated,
            rewrite.queries_generated);
  EXPECT_EQ(ungoverned->stats.rewrite.rewriting_steps,
            rewrite.rewriting_steps);
  EXPECT_EQ(ungoverned->stats.rewrite.subsumption_checks,
            rewrite.subsumption_checks);
}

// ---------- Input validation. ----------

TEST(ContainmentTest, RejectsMismatchedSchemas) {
  Omq q1 = MakeOmq(S({{"R", 2}}), "", "Q(X) :- R(X,Y)");
  Omq q2 = MakeOmq(S({{"P", 1}}), "", "Q(X) :- P(X)");
  EXPECT_FALSE(CheckContainment(q1, q2).ok());
}

TEST(ContainmentTest, RejectsMismatchedArity) {
  Schema schema = S({{"R", 2}});
  Omq q1 = MakeOmq(schema, "", "Q(X) :- R(X,Y)");
  Omq q2 = MakeOmq(schema, "", "Q(X,Y) :- R(X,Y)");
  EXPECT_FALSE(CheckContainment(q1, q2).ok());
}

// ---------- Budget soundness (tri-state homomorphism search). ----------

TEST(ContainmentTest, TinyHomBudgetYieldsUnknownNotRefutation) {
  // Regression: this pair is definitely contained. Before the tri-state
  // homomorphism result, an exhausted step budget looked like "tuple not
  // in answer" and flipped the verdict to kNotContained — it must be
  // kUnknown with an explanation.
  Schema schema = S({{"R", 2}});
  Omq longer = MakeOmq(schema, "", "Q(X) :- R(X,Y), R(Y,Z)");
  Omq shorter = MakeOmq(schema, "", "Q(X) :- R(X,Y)");
  ContainmentOptions options;
  options.eval.hom_max_steps = 1;
  auto result = CheckContainment(longer, shorter, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome, ContainmentOutcome::kUnknown);
  EXPECT_FALSE(result->witness.has_value());
  EXPECT_NE(result->detail.find("exhausted"), std::string::npos)
      << result->detail;
  EXPECT_GT(result->stats.budget_exhaustions, 0u);
  EXPECT_GT(result->stats.hom.budget_exhaustions, 0u);

  // With an adequate budget the same pair certifies.
  options.eval.hom_max_steps = 10000;
  auto exact = CheckContainment(longer, shorter, options);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->outcome, ContainmentOutcome::kContained);
}

TEST(ContainmentTest, StatsReportPerLayerWork) {
  Schema schema = S({{"P", 1}, {"T", 1}});
  Omq q1 = MakeOmq(schema, "T(X) -> P(X).", "Q(X) :- T(X)");
  Omq q2 = MakeOmq(schema, "T(X) -> P(X).", "Q(X) :- P(X)");
  auto result = CheckContainment(q1, q2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ContainmentOutcome::kContained);
  EXPECT_EQ(result->stats.disjuncts_checked, result->candidates_checked);
  EXPECT_EQ(result->stats.witnesses_rejected, result->candidates_checked);
  EXPECT_GT(result->stats.hom.searches, 0u);
  EXPECT_GT(result->stats.rewrite.queries_generated, 0u);
  EXPECT_FALSE(result->stats.ToString().empty());
}

// ---------- The engine's RHS check is EvalTuple. ----------

/// Replays a containment request through the public layers, as the
/// end-to-end benchmark's traced run does: EnumerateRewritings, Freeze
/// each disjunct, EvalTuple against Q2. A refuting candidate gives
/// NOT_CONTAINED, a saturated enumeration whose every check held gives
/// CONTAINED, anything else UNKNOWN.
ContainmentResult Replay(const Omq& q1, const Omq& q2,
                         const ContainmentOptions& options) {
  ContainmentResult result;
  bool inconclusive = false;
  auto on_disjunct = [&](const ConjunctiveQuery& p) {
    ++result.candidates_checked;
    FrozenQuery frozen = Freeze(p);
    Result<bool> in =
        EvalTuple(q2, frozen.database, frozen.answer_tuple, options.eval);
    if (!in.ok()) {
      inconclusive = true;
      return true;
    }
    if (*in) return true;
    result.witness = ContainmentWitness{std::move(frozen.database),
                                        std::move(frozen.answer_tuple)};
    return false;
  };
  auto enumeration = EnumerateRewritings(q1.data_schema, q1.tgds, q1.query,
                                         options.rewrite, on_disjunct);
  EXPECT_TRUE(enumeration.ok()) << enumeration.status().ToString();
  if (result.witness.has_value()) {
    result.outcome = ContainmentOutcome::kNotContained;
  } else if (enumeration.ok() &&
             *enumeration == RewriteEnumeration::kSaturated &&
             !inconclusive) {
    result.outcome = ContainmentOutcome::kContained;
  }
  return result;
}

TEST(ContainmentTest, EngineRhsCheckIsEvalTuple) {
  // Small factory scenarios of every class and both polarities, at the
  // soak's budgets: the engine and the replay agree on the outcome, the
  // candidate count and the (prettified) witness.
  ContainmentOptions options;
  options.rewrite.max_queries = 120;
  options.rewrite.max_steps = 20000;
  options.rewrite.prune_subsumed = true;
  std::vector<ScenarioSpec> specs;
  for (TgdClass cls : {TgdClass::kLinear, TgdClass::kSticky,
                       TgdClass::kNonRecursive, TgdClass::kGuarded}) {
    for (bool contained : {true, false}) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        ScenarioSpec spec;
        spec.seed = seed;
        spec.tgd_class = cls;
        spec.contained = contained;
        spec.length = 2 + static_cast<int>(seed % 2);
        spec.width = 1 + static_cast<int>(seed % 2);
        spec.walk_depth = 1;
        spec.decoy_tiles = 1;
        // Contained guarded scenarios enumerate up to the budget; keep
        // one whose candidates are cheap (6 candidates, UNKNOWN).
        if (cls == TgdClass::kGuarded && contained) {
          if (seed > 1) continue;
          spec.length = 3;
          spec.width = 1;
          spec.walk_depth = 0;
        }
        specs.push_back(spec);
      }
    }
  }
  for (const ScenarioSpec& spec : specs) {
    Scenario scenario = MakeScenario(spec);
    Schema schema = InferProgramDataSchema(scenario.program);
    auto q1 = SingleQueryNamed(scenario.program, schema, kLhsQuery);
    auto q2 = SingleQueryNamed(scenario.program, schema, kRhsQuery);
    ASSERT_TRUE(q1.ok() && q2.ok()) << spec.ToString();
    auto engine = CheckContainment(*q1, *q2, options);
    ASSERT_TRUE(engine.ok()) << spec.ToString();
    ContainmentResult replay = Replay(*q1, *q2, options);
    EXPECT_EQ(engine->outcome, replay.outcome) << spec.ToString();
    EXPECT_EQ(engine->candidates_checked, replay.candidates_checked)
        << spec.ToString();
    ASSERT_EQ(engine->witness.has_value(), replay.witness.has_value())
        << spec.ToString();
    if (engine->witness.has_value()) {
      EXPECT_EQ(PrettifiedCopy(engine->witness->database).ToString(),
                PrettifiedCopy(replay.witness->database).ToString())
          << spec.ToString();
    }
  }
}

// ---------- A request's terms die with it. ----------

/// The id the next new constant gets: a sentinel interned now.
int32_t NextConstantId() {
  static int sentinels = 0;
  return Term::Constant(StrCat("repeat_sentinel_", sentinels++)).id() + 1;
}

TEST(ContainmentTest, RepeatedRequestInternsNoNewConstants) {
  // Scenario 1 of seed 11 is sticky and contained, 3 is guarded and not
  // contained. Freezing names variables, not calls, and the chase's nulls
  // are not interned, so the second run finds every name it needs.
  for (uint64_t index : {1, 3}) {
    Scenario s = MakeScenario(SpecForIndex(11, index));
    Schema schema = InferProgramDataSchema(s.program);
    Omq q1 = SingleQueryNamed(s.program, schema, kLhsQuery).value();
    Omq q2 = SingleQueryNamed(s.program, schema, kRhsQuery).value();
    ContainmentOptions options;
    options.rewrite.max_queries = 120;
    options.rewrite.max_steps = 20000;
    auto first = CheckContainment(q1, q2, options);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(first->outcome, s.expected) << s.spec.ToString();
    const int32_t before = NextConstantId();
    auto second = CheckContainment(q1, q2, options);
    const int32_t after = NextConstantId();
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second->outcome, first->outcome);
    EXPECT_EQ(after - before, 1) << "index " << index << " interned "
                                 << after - before - 1 << " constants";
  }
}

TEST(ContainmentTest, OutcomeToString) {
  EXPECT_STREQ(ContainmentOutcomeToString(ContainmentOutcome::kContained),
               "CONTAINED");
  EXPECT_STREQ(
      ContainmentOutcomeToString(ContainmentOutcome::kNotContained),
      "NOT_CONTAINED");
  EXPECT_STREQ(ContainmentOutcomeToString(ContainmentOutcome::kUnknown),
               "UNKNOWN");
}

}  // namespace
}  // namespace omqc
