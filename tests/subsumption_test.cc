// Tests for XRewrite's admission path: the subsumption-pruning scan, the
// freeze-once minimizers (MinimizeCQ, MinimizeUCQ) and the dedup bucket
// key.
//
// The scan freezes each newcomer once and skips an earlier entry without
// a search when the entry has a predicate the newcomer lacks (a 64-bit
// predicate-id signature) or an atom with no newcomer atom it could map
// onto (the shape filter). MinimizeCQ searches only atoms that pass the
// fold filter and were not found irredundant before. No shortcut may
// change a decision: the enumerations of the guarded soak scenarios are
// pinned to the values the per-entry CQContainedIn scan produced, and the
// minimizers are compared with that scan's loops, kept here as oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/containment.h"
#include "core/frontend.h"
#include "logic/homomorphism.h"
#include "rewrite/xrewrite.h"
#include "soak/scenario.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

/// FNV-1a over `text`, continuing from `hash`.
uint64_t Fnv1a(uint64_t hash, const std::string& text) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct Enumeration {
  RewriteEnumeration outcome = RewriteEnumeration::kSaturated;
  std::vector<std::string> reported;
  XRewriteStats stats;
};

/// Enumerates the whole rewriting of `q` (the callback never stops it).
Enumeration Enumerate(const Schema& schema, const TgdSet& tgds,
                      const ConjunctiveQuery& q,
                      const XRewriteOptions& options) {
  Enumeration out;
  auto outcome = EnumerateRewritings(
      schema, tgds, q, options,
      [&out](const ConjunctiveQuery& disjunct) {
        out.reported.push_back(disjunct.ToString());
        return true;
      },
      &out.stats);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  if (outcome.ok()) out.outcome = *outcome;
  return out;
}

/// The soak's enumeration budgets (soak/differential.cc).
XRewriteOptions SoakBudgets() {
  XRewriteOptions options;
  options.max_queries = 120;
  options.max_steps = 20000;
  options.prune_subsumed = true;
  return options;
}

/// Q1's full enumeration for scenario `index` of soak seed 11.
Enumeration EnumerateSoakScenario(uint64_t index) {
  Scenario scenario = MakeScenario(SpecForIndex(11, index));
  Schema schema = InferProgramDataSchema(scenario.program);
  Omq q1 = SingleQueryNamed(scenario.program, schema, kLhsQuery).value();
  return Enumerate(schema, q1.tgds, q1.query, SoakBudgets());
}

struct Pinned {
  uint64_t index;
  size_t reported;
  uint64_t reported_hash;  // Fnv1a over "<disjunct>\n", in report order
  size_t queries_generated;
  size_t dedup_hits;
  size_t subsumption_prunes;
};

// Recorded with the scan that froze the newcomer per entry and searched
// every earlier same-arity rewriting entry. Every run ends at the
// 120-query budget.
constexpr Pinned kGuardedSeed11[] = {
    {3, 49, 0xe22e76e218030daeULL, 120, 1, 10},
    {4, 6, 0x0f89c092835737a1ULL, 120, 1, 62},
    {6, 4, 0x4c321cf48910e81aULL, 120, 0, 0},
    {8, 54, 0xb576bc53bd62d38fULL, 120, 1, 2},
    {9, 39, 0x1eaf4a2ff6b5fa10ULL, 120, 0, 0},
    {12, 57, 0x0e5d8900787d4c0cULL, 120, 0, 0},
    {13, 57, 0xadf9cdbeebf149d2ULL, 120, 0, 0},
    {19, 0, 0xcbf29ce484222325ULL, 120, 0, 0},
    {24, 2, 0xd40e1edbad93bcddULL, 120, 0, 0},
    {25, 57, 0x4768675cdcd8eef2ULL, 120, 0, 0},
    {26, 3, 0xef6a78fef0156943ULL, 120, 1, 4},
};

TEST(SubsumptionScanTest, GuardedSoakEnumerationsArePinned) {
  std::vector<uint64_t> guarded;
  for (uint64_t i = 0; i < 30; ++i) {
    if (SpecForIndex(11, i).tgd_class == TgdClass::kGuarded) {
      guarded.push_back(i);
    }
  }
  std::vector<uint64_t> pinned;
  for (const Pinned& p : kGuardedSeed11) pinned.push_back(p.index);
  ASSERT_EQ(guarded, pinned);

  for (const Pinned& p : kGuardedSeed11) {
    SCOPED_TRACE("scenario " + std::to_string(p.index));
    Enumeration run = EnumerateSoakScenario(p.index);
    EXPECT_EQ(run.outcome, RewriteEnumeration::kBudgetExhausted);
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const std::string& d : run.reported) hash = Fnv1a(hash, d + "\n");
    EXPECT_EQ(run.reported.size(), p.reported);
    EXPECT_EQ(hash, p.reported_hash);
    EXPECT_EQ(run.stats.queries_generated, p.queries_generated);
    EXPECT_EQ(run.stats.dedup_hits, p.dedup_hits);
    EXPECT_EQ(run.stats.subsumption_prunes, p.subsumption_prunes);
    EXPECT_LE(run.stats.subsumption_prunes, run.stats.subsumption_checks);
  }
}

TEST(SubsumptionScanTest, GuardedSoakSearchTreesArePinned) {
  // The homomorphism search explores the same tree however it stores its
  // bindings: the counters of the searches behind CheckContainment's RHS
  // checks (membership tests and chase triggers) over the guarded soak
  // scenarios, summed, are pinned to the values the search that kept its
  // bindings in a Substitution produced.
  HomCounters total;
  for (const Pinned& p : kGuardedSeed11) {
    SCOPED_TRACE("scenario " + std::to_string(p.index));
    Scenario scenario = MakeScenario(SpecForIndex(11, p.index));
    Schema schema = InferProgramDataSchema(scenario.program);
    Omq q1 = SingleQueryNamed(scenario.program, schema, kLhsQuery).value();
    Omq q2 = SingleQueryNamed(scenario.program, schema, kRhsQuery).value();
    ContainmentOptions options;
    options.rewrite = SoakBudgets();
    auto result = CheckContainment(q1, q2, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    total.Merge(result->stats.hom);
  }
  EXPECT_EQ(total.searches, 22036u);
  EXPECT_EQ(total.steps, 32052u);
  EXPECT_EQ(total.candidates_scanned, 20271u);
  EXPECT_EQ(total.postings_intersections, 1229u);
  EXPECT_EQ(total.candidates_pruned_by_intersection, 0u);
  EXPECT_EQ(total.budget_exhaustions, 0u);
}

TEST(SubsumptionScanTest, PrefilterSkipsMostSearchesOnScenario8) {
  // The scan without a prefilter searched every (newcomer, earlier
  // same-arity rewriting entry) pair until a prune: 7278 searches on this
  // run. Losing the prefilter brings the count back up to that.
  constexpr size_t kSameArityPairs = 7278;
  Enumeration run = EnumerateSoakScenario(8);
  EXPECT_GT(run.stats.subsumption_checks, 0u);
  EXPECT_LT(run.stats.subsumption_checks, kSameArityPairs);
}

// ---------------------------------------------------------------------------
// Prefilter edge cases. Each program rewrites Q's single atom with one rule
// per newcomer, in rule order, so the admission sequence is known.

Schema SchemaOf(const std::vector<Predicate>& predicates) {
  Schema schema;
  for (const Predicate& p : predicates) schema.Add(p);
  return schema;
}

uint64_t Bit(const Predicate& p) {
  return uint64_t{1} << (static_cast<uint32_t>(p.id()) % 64);
}

/// Interns 65 fresh unary predicates "<prefix>0".."<prefix>64" and returns
/// two of them whose ids are equal mod 64 (one must exist by pigeonhole).
std::pair<Predicate, Predicate> CollidingPair(const std::string& prefix) {
  std::vector<Predicate> fresh;
  for (int i = 0; i < 65; ++i) {
    fresh.push_back(Predicate::Get(prefix + std::to_string(i), 1));
  }
  for (size_t i = 0; i < fresh.size(); ++i) {
    for (size_t j = i + 1; j < fresh.size(); ++j) {
      if (Bit(fresh[i]) == Bit(fresh[j])) return {fresh[i], fresh[j]};
    }
  }
  ADD_FAILURE() << "no two of 65 predicates collide mod 64";
  return {fresh[0], fresh[1]};
}

/// A fresh predicate "<prefix><n>" of `arity` whose signature bit is none
/// of `*taken`; its bit is added to `*taken`.
Predicate FreshPredicate(const std::string& prefix, int arity,
                         uint64_t* taken) {
  for (int i = 0;; ++i) {
    Predicate p = Predicate::Get(prefix + std::to_string(i), arity);
    if ((Bit(p) & *taken) == 0) {
      *taken |= Bit(p);
      return p;
    }
  }
}

XRewriteOptions Pruning() {
  XRewriteOptions options;
  options.prune_subsumed = true;
  return options;
}

TEST(SubsumptionScanTest, CollidingSignaturesStillSearch) {
  auto [a, b] = CollidingPair("Coll");
  ASSERT_NE(a, b);
  ASSERT_EQ(Bit(a), Bit(b));
  uint64_t taken = Bit(a);
  Predicate goal = FreshPredicate("CollGoal", 1, &taken);
  Predicate other = FreshPredicate("CollOther", 1, &taken);
  const std::string A = a.name(), B = b.name(), G = goal.name(),
                    C = other.name();
  // Newcomers in order: A(X); A(X),B(X) — pruned by A(X) after one search;
  // B(X) — A's bit equals B's, so the mask passes, but A(X) has no A atom
  // to map onto, so the shape filter skips it; C(X) — skipped against
  // every entry without a search.
  TgdSet tgds = ParseTgds(A + "(X) -> " + G + "(X). " + A + "(X), " + B +
                          "(X) -> " + G + "(X). " + B + "(X) -> " + G +
                          "(X). " + C + "(X) -> " + G + "(X).")
                    .value();
  ConjunctiveQuery q = ParseQuery("Q(X) :- " + G + "(X)").value();
  Enumeration run = Enumerate(SchemaOf({a, b, other}), tgds, q, Pruning());
  EXPECT_EQ(run.outcome, RewriteEnumeration::kSaturated);
  ASSERT_EQ(run.reported.size(), 3u);
  EXPECT_NE(run.reported[0].find(" :- " + A + "("), std::string::npos);
  EXPECT_NE(run.reported[1].find(" :- " + B + "("), std::string::npos);
  EXPECT_NE(run.reported[2].find(" :- " + C + "("), std::string::npos);
  EXPECT_EQ(run.stats.subsumption_prunes, 1u);
  EXPECT_EQ(run.stats.subsumption_checks, 1u);
}

TEST(SubsumptionScanTest, ShapesThatPassStillSearch) {
  auto [a, b] = CollidingPair("Shape");
  ASSERT_EQ(Bit(a), Bit(b));
  uint64_t taken = Bit(a);
  const std::string G = FreshPredicate("ShapeGoal", 0, &taken).name();
  const std::string A = a.name(), B = b.name();
  // Newcomers in order: A(Z),B(Z); A(X),B(Y). The entry's A and B bits
  // coincide, and each of its atoms has a same-predicate newcomer atom
  // with no constant, answer variable or repeat to contradict, so both
  // filters pass; only the search sees that Z cannot be both X and Y.
  TgdSet tgds = ParseTgds(A + "(Z), " + B + "(Z) -> " + G + "(). " + A +
                          "(X), " + B + "(Y) -> " + G + "().")
                    .value();
  ConjunctiveQuery q = ParseQuery("Q() :- " + G + "()").value();
  Enumeration run = Enumerate(SchemaOf({a, b}), tgds, q, Pruning());
  EXPECT_EQ(run.outcome, RewriteEnumeration::kSaturated);
  EXPECT_EQ(run.reported.size(), 2u);
  EXPECT_EQ(run.stats.subsumption_prunes, 0u);
  EXPECT_EQ(run.stats.subsumption_checks, 1u);
}

TEST(SubsumptionScanTest, NullaryAtoms) {
  // Z() subsumes Z(),W(); W() has no Z atom, so Z() is skipped unsearched.
  uint64_t taken = 0;
  const std::string G = FreshPredicate("NullGoal", 0, &taken).name();
  Predicate z = FreshPredicate("NullZ", 0, &taken);
  Predicate w = FreshPredicate("NullW", 0, &taken);
  const std::string Z = z.name(), W = w.name();
  TgdSet tgds = ParseTgds(Z + "() -> " + G + "(). " + Z + "(), " + W +
                          "() -> " + G + "(). " + W + "() -> " + G + "().")
                    .value();
  ConjunctiveQuery q = ParseQuery("Q() :- " + G + "()").value();
  Enumeration run = Enumerate(SchemaOf({z, w}), tgds, q, Pruning());
  EXPECT_EQ(run.reported, (std::vector<std::string>{"q() :- " + Z + "()",
                                                    "q() :- " + W + "()"}));
  EXPECT_EQ(run.stats.subsumption_prunes, 1u);
  EXPECT_EQ(run.stats.subsumption_checks, 1u);
}

TEST(SubsumptionScanTest, ConstantsInTheEntry) {
  uint64_t taken = 0;
  const std::string G = FreshPredicate("ConstGoal", 1, &taken).name();
  Predicate a = FreshPredicate("ConstA", 1, &taken);
  Predicate b = FreshPredicate("ConstB", 1, &taken);
  const std::string A = a.name(), B = b.name();
  Schema schema = SchemaOf({a, b});
  ConjunctiveQuery q = ParseQuery("Q() :- " + G + "(Z)").value();
  {
    // A(c) prunes A(c),B(c) through its constant, but does not map into
    // Freeze(A(Z)) = {A(@f_Z)}: the later, more general A(Z) is admitted
    // (pruning never evicts an earlier entry) without a search, as no
    // atom of A(Z) holds c.
    TgdSet tgds = ParseTgds(A + "(c) -> " + G + "(c). " + A + "(c), " + B +
                            "(c) -> " + G + "(c). " + A + "(X) -> " + G +
                            "(X).")
                      .value();
    Enumeration run = Enumerate(schema, tgds, q, Pruning());
    ASSERT_EQ(run.reported.size(), 2u);
    EXPECT_EQ(run.reported[0], "q() :- " + A + "(c)");
    EXPECT_EQ(run.reported[1].find("q() :- " + A + "(c)"), std::string::npos);
    EXPECT_EQ(run.stats.subsumption_prunes, 1u);
    EXPECT_EQ(run.stats.subsumption_checks, 1u);
  }
  {
    // The general query first: it maps onto A(c), which is pruned.
    TgdSet tgds =
        ParseTgds(A + "(X) -> " + G + "(X). " + A + "(c) -> " + G + "(c).")
            .value();
    Enumeration run = Enumerate(schema, tgds, q, Pruning());
    ASSERT_EQ(run.reported.size(), 1u);
    EXPECT_NE(run.reported[0], "q() :- " + A + "(c)");
    EXPECT_EQ(run.stats.subsumption_prunes, 1u);
    EXPECT_EQ(run.stats.subsumption_checks, 1u);
  }
}

// ---------------------------------------------------------------------------
// The minimizers against the loops that froze the candidate per test.

ConjunctiveQuery OracleMinimizeCQ(const ConjunctiveQuery& q) {
  ConjunctiveQuery current = q;
  bool changed = true;
  while (changed && current.body.size() > 1) {
    changed = false;
    for (size_t i = 0; i < current.body.size(); ++i) {
      ConjunctiveQuery candidate = current;
      candidate.body.erase(candidate.body.begin() +
                           static_cast<std::ptrdiff_t>(i));
      if (!ValidateCQ(candidate).ok()) continue;
      if (CQContainedIn(candidate, current)) {
        current = std::move(candidate);
        changed = true;
        break;
      }
    }
  }
  return current;
}

UnionOfCQs OracleMinimizeUCQ(const UnionOfCQs& ucq) {
  std::vector<ConjunctiveQuery> kept;
  for (const ConjunctiveQuery& candidate : ucq.disjuncts) {
    bool subsumed = false;
    for (const ConjunctiveQuery& k : kept) {
      if (CQContainedIn(candidate, k)) {
        subsumed = true;
        break;
      }
    }
    if (subsumed) continue;
    std::vector<ConjunctiveQuery> next;
    for (ConjunctiveQuery& k : kept) {
      if (!CQContainedIn(k, candidate)) next.push_back(std::move(k));
    }
    next.push_back(candidate);
    kept = std::move(next);
  }
  return UnionOfCQs(std::move(kept));
}

/// A random CQ over R/2, S/2, P/1, T/3 and the 0-ary Z, with variables
/// X0..X3 and constants a, b; answer tuples of arity 0..2 may repeat a
/// variable or hold a constant. Duplicate body atoms are kept.
ConjunctiveQuery RandomCQ(SplitMix64& rng) {
  static const std::vector<Predicate> kPredicates = {
      Predicate::Get("R", 2), Predicate::Get("S", 2), Predicate::Get("P", 1),
      Predicate::Get("T", 3), Predicate::Get("Z", 0)};
  auto term = [&rng]() {
    if (rng.Chance(12)) {
      return Term::Constant(rng.Chance(50) ? "a" : "b");
    }
    return Term::Variable("X" + std::to_string(rng.Below(4)));
  };
  ConjunctiveQuery q;
  const uint64_t atoms = rng.Between(1, 6);
  for (uint64_t i = 0; i < atoms; ++i) {
    const Predicate& p = kPredicates[rng.Below(kPredicates.size())];
    std::vector<Term> args;
    for (int j = 0; j < p.arity(); ++j) args.push_back(term());
    q.body.push_back(Atom(p, std::move(args)));
  }
  std::vector<Term> vars;
  for (const Atom& a : q.body) {
    for (const Term& t : a.args) {
      if (t.IsVariable()) vars.push_back(t);
    }
  }
  const uint64_t arity = rng.Below(3);
  for (uint64_t i = 0; i < arity; ++i) {
    if (vars.empty() || rng.Chance(10)) {
      q.answer_vars.push_back(Term::Constant("a"));
    } else {
      q.answer_vars.push_back(vars[rng.Below(vars.size())]);
    }
  }
  return q;
}

TEST(FreezeOnceMinimizeTest, MinimizeCQMatchesTheOracle) {
  SplitMix64 rng(20231);
  int shrunk = 0;
  for (int i = 0; i < 200; ++i) {
    ConjunctiveQuery q = RandomCQ(rng);
    ASSERT_TRUE(ValidateCQ(q).ok()) << q.ToString();
    ConjunctiveQuery minimized = MinimizeCQ(q);
    EXPECT_EQ(minimized, OracleMinimizeCQ(q)) << q.ToString();
    if (minimized.size() < q.size()) ++shrunk;
  }
  // The comparison means little unless atoms really are removed.
  EXPECT_GT(shrunk, 0);
}

/// MinimizeCQ of `query` (parsed), checked against the oracle too.
std::string Minimized(const std::string& query) {
  ConjunctiveQuery q = ParseQuery(query).value();
  ConjunctiveQuery got = MinimizeCQ(q);
  EXPECT_EQ(got, OracleMinimizeCQ(q)) << query;
  return got.ToString();
}

TEST(FreezeOnceMinimizeTest, FoldFilterCases) {
  // A duplicate atom folds onto its twin; excluding its frozen atom would
  // also exclude the twin's, so the search runs on the whole set.
  ASSERT_EQ(ParseQuery("Q(X) :- R(X,Y), R(X,Y)").value().size(), 2u);
  EXPECT_EQ(Minimized("Q(X) :- R(X,Y), R(X,Y)"), "q(X) :- R(X,Y)");
  // R(X,X) repeats a variable, so it cannot fold onto R(Y,Z); R(Y,Z) can
  // fold onto R(X,X).
  EXPECT_EQ(Minimized("Q() :- R(X,X), R(Y,Z)"), "q() :- R(X,X)");
  EXPECT_EQ(Minimized("Q() :- R(Y,Z), R(X,X)"), "q() :- R(X,X)");
  // Constants must match exactly; a variable may fold onto a constant.
  EXPECT_EQ(Minimized("Q() :- R(X,c), R(Y,d)"), "q() :- R(X,c), R(Y,d)");
  EXPECT_EQ(Minimized("Q() :- R(X,c), R(c,c)"), "q() :- R(c,c)");
  // Answer variables stay fixed, also when the tuple repeats one.
  EXPECT_EQ(Minimized("Q(X,X) :- R(X,Y), R(X,Z)"), "q(X,X) :- R(X,Z)");
  EXPECT_EQ(Minimized("Q(X,X) :- R(X,Y), R(Y,X)"),
            "q(X,X) :- R(X,Y), R(Y,X)");
  EXPECT_EQ(Minimized("Q(X,Y) :- R(X,Z), R(Y,Z)"),
            "q(X,Y) :- R(X,Z), R(Y,Z)");
}

TEST(FreezeOnceMinimizeTest, IrredundantAtomsAreTestedOnce) {
  // The triangle is a core: round 1 searches its three atoms and refutes
  // each, then drops R(U,V); round 2 drops S(A) without searching the
  // triangle again; round 3 finds nothing for the filter to pass.
  const std::string query =
      "Q() :- T(X,Y), T(Y,Z), T(Z,X), R(U,V), R(U,W), S(A), S(B)";
  EXPECT_EQ(Minimized(query),
            "q() :- T(X,Y), T(Y,Z), T(Z,X), R(U,W), S(B)");
  // XRewrite minimizes its input query on admission, so its stats count
  // the searches: 3 + 1 in round 1, 1 in round 2. Searching the triangle
  // again in every round would have run 4 + 4 + 3.
  ConjunctiveQuery q = ParseQuery(query).value();
  XRewriteStats stats;
  ASSERT_TRUE(XRewrite(SchemaOf({Predicate::Get("T", 2),
                                 Predicate::Get("R", 2),
                                 Predicate::Get("S", 1)}),
                       TgdSet(), q, XRewriteOptions(), &stats)
                  .ok());
  EXPECT_EQ(stats.minimize_checks, 5u);
}

TEST(FreezeOnceMinimizeTest, MinimizeUCQMatchesTheOracle) {
  SplitMix64 rng(4099);
  for (int i = 0; i < 200; ++i) {
    UnionOfCQs ucq;
    const uint64_t n = rng.Between(1, 6);
    for (uint64_t j = 0; j < n; ++j) {
      ConjunctiveQuery d = RandomCQ(rng);
      ucq.disjuncts.push_back(d);
      // Renamed and repeated copies exercise the equivalence classes.
      if (rng.Chance(20)) ucq.disjuncts.push_back(d.RenamedApart(static_cast<int>(j)));
      if (rng.Chance(10)) ucq.disjuncts.push_back(d);
    }
    UnionOfCQs got = MinimizeUCQ(ucq);
    UnionOfCQs want = OracleMinimizeUCQ(ucq);
    EXPECT_EQ(got.disjuncts, want.disjuncts) << ucq.ToString();
  }
}

/// `q` with its variables renamed by `index` and its atoms shuffled.
ConjunctiveQuery RenamedAndShuffled(const ConjunctiveQuery& q, int index,
                                    SplitMix64& rng) {
  ConjunctiveQuery out = q.RenamedApart(index);
  for (size_t i = out.body.size(); i > 1; --i) {
    std::swap(out.body[i - 1], out.body[rng.Below(i)]);
  }
  return out;
}

TEST(DedupBucketKeyTest, InvariantUnderRenamingAndAtomOrder) {
  SplitMix64 rng(77);
  for (int i = 0; i < 200; ++i) {
    ConjunctiveQuery q = RandomCQ(rng);
    // XRewrite admits deduplicated bodies only.
    std::vector<Atom> body;
    for (const Atom& a : q.body) {
      if (std::find(body.begin(), body.end(), a) == body.end()) {
        body.push_back(a);
      }
    }
    q.body = std::move(body);
    ConjunctiveQuery p = RenamedAndShuffled(q, i, rng);
    ASSERT_TRUE(IsomorphicCQs(q, p)) << q.ToString();
    EXPECT_EQ(DedupBucketKey(q), DedupBucketKey(p))
        << q.ToString() << " vs " << p.ToString();
  }
}

TEST(DedupBucketKeyTest, SeparatesSimpleShapes) {
  auto key = [](const std::string& query) {
    return DedupBucketKey(ParseQuery(query).value());
  };
  EXPECT_NE(key("Q() :- R(X,Y)"), key("Q() :- R(X,X)"));
  EXPECT_NE(key("Q(X) :- R(X,Y)"), key("Q(Y) :- R(X,Y)"));
  EXPECT_NE(key("Q() :- R(X,Y), R(Y,Z)"), key("Q() :- R(X,Y), R(Z,Y)"));
  EXPECT_NE(key("Q() :- R(X,c)"), key("Q() :- R(X,d)"));
  EXPECT_NE(key("Q(c) :- R(X,Y)"), key("Q(d) :- R(X,Y)"));
}

TEST(FreezeOnceMinimizeTest, AnswerArityMismatchIsNeverSubsumed) {
  // q() :- A(Y) would map into Freeze(q(X) :- A(X)) as a Boolean query,
  // but disjuncts of different arity never subsume each other.
  UnionOfCQs ucq({ParseQuery("Q(X) :- A(X)").value(),
                  ParseQuery("Q() :- A(Y)").value()});
  EXPECT_EQ(MinimizeUCQ(ucq).disjuncts, ucq.disjuncts);
}

}  // namespace
}  // namespace omqc
