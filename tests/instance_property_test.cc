// Property tests for the columnar (arena-backed) Instance storage.
//
// Two suites:
//
//  * InstancePropertyTest — randomized instances, parameterized over the
//    ACCESS PATH (materialized Atoms from the packed mirror / windowed
//    by-arg postings and Atom membership vs. id postings into arena
//    AtomViews): the two paths must expose the identical relation,
//    operator== must be symmetric, and re-adding atoms must be a no-op
//    for the arena and every index (set semantics).
//
//  * InstanceIndexConsistencyTest — both access paths must agree with a
//    brute-force filter over every atom,
//    both on randomized instances and on a chase instance, next to
//    containment checks that freeze and search many instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "core/containment.h"
#include "logic/instance.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

/// Deterministic xorshift64 stream (the suite must not flake).
class Rng {
 public:
  explicit Rng(uint64_t seed) : x_(seed) {}
  uint64_t Next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

 private:
  uint64_t x_;
};

/// Random atoms over `preds` predicates of mixed arity (1..3) and `domain`
/// constants, with duplicates.
std::vector<Atom> RandomAtoms(Rng& rng, size_t n, int preds, int domain) {
  std::vector<Atom> atoms;
  atoms.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i > 4 && rng.Next() % 5 == 0) {
      atoms.push_back(atoms[rng.Next() % i]);  // duplicate
      continue;
    }
    int p = static_cast<int>(rng.Next() % static_cast<uint64_t>(preds));
    int arity = 1 + p % 3;
    std::vector<Term> args;
    for (int a = 0; a < arity; ++a) {
      args.push_back(Term::Constant(
          "c" + std::to_string(rng.Next() % static_cast<uint64_t>(domain))));
    }
    atoms.emplace_back(Predicate::Get("P" + std::to_string(p), arity),
                       std::move(args));
  }
  return atoms;
}

enum class AccessPath { kMaterialized, kArenaViews };

/// Every atom of `inst`, in insertion order.
std::vector<Atom> AllAtoms(const Instance& inst) {
  std::vector<Atom> out;
  for (AtomId id = 0; id < inst.size(); ++id) {
    out.push_back(inst.MaterializeAtom(id));
  }
  return out;
}

/// The atoms of `inst` with predicate `p`, through the chosen access path:
/// the packed predicate-major mirror, or the id postings into the arena.
std::vector<Atom> Enumerate(const Instance& inst, Predicate p,
                            AccessPath path) {
  std::vector<Atom> out;
  if (path == AccessPath::kMaterialized) {
    PostingsSpan span = inst.Postings(p);
    for (size_t j = 0; j < span.size(); ++j) {
      out.push_back(span.view(j).Materialize());
    }
    return out;
  }
  for (AtomId id : inst.IdsWith(p)) {
    out.push_back(inst.view(id).Materialize());
  }
  return out;
}

/// The atoms of `inst` with `t` at argument position `pos` of `p`: the
/// by-arg postings windowed to the whole arena, or the full list.
std::vector<Atom> EnumerateArg(const Instance& inst, Predicate p, int pos,
                               const Term& t, AccessPath path) {
  std::vector<Atom> out;
  if (path == AccessPath::kMaterialized) {
    auto [first, last] =
        inst.ArgIdRange(p, pos, t, 0, static_cast<AtomId>(inst.size()));
    for (const AtomId* id = first; id != last; ++id) {
      out.push_back(inst.MaterializeAtom(*id));
    }
    return out;
  }
  for (AtomId id : inst.IdsWithArg(p, pos, t)) {
    out.push_back(inst.view(id).Materialize());
  }
  return out;
}

bool Member(const Instance& inst, const Atom& a, AccessPath path) {
  if (path == AccessPath::kMaterialized) return inst.Contains(a);
  std::optional<AtomId> id = inst.FindId(a);
  if (!id.has_value()) return false;
  return inst.view(*id) == ViewOf(a);  // the id must resolve to the atom
}

class InstancePropertyTest : public ::testing::TestWithParam<AccessPath> {};

INSTANTIATE_TEST_SUITE_P(
    AccessPaths, InstancePropertyTest,
    ::testing::Values(AccessPath::kMaterialized, AccessPath::kArenaViews),
    [](const ::testing::TestParamInfo<AccessPath>& info) {
      return info.param == AccessPath::kMaterialized ? "Materialized"
                                                     : "ArenaViews";
    });

TEST_P(InstancePropertyTest, EqualityIsSymmetricUnderShuffledInsertion) {
  Rng rng(0x9E3779B97F4A7C15ull);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Atom> atoms = RandomAtoms(rng, 30 + trial, 5, 8);
    Instance a;
    for (const Atom& atom : atoms) a.Add(atom);
    // b holds the same set, inserted in a different order.
    std::vector<Atom> shuffled = atoms;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.Next() % i]);
    }
    Instance b;
    for (const Atom& atom : shuffled) b.Add(atom);
    EXPECT_TRUE(a == b) << "trial " << trial;
    EXPECT_TRUE(b == a) << "trial " << trial;
    // Membership agrees through the parameterized access path.
    for (const Atom& atom : atoms) {
      EXPECT_TRUE(Member(a, atom, GetParam()));
      EXPECT_TRUE(Member(b, atom, GetParam()));
    }
    // Perturbing one atom breaks equality in BOTH directions.
    Instance c = a;
    c.Add(Atom::Make("Extra", {Term::Constant("zz" + std::to_string(trial))}));
    EXPECT_FALSE(a == c) << "trial " << trial;
    EXPECT_FALSE(c == a) << "trial " << trial;
    EXPECT_FALSE(Member(a, Atom::Make("Extra", {Term::Constant(
                               "zz" + std::to_string(trial))}),
                        GetParam()));
  }
}

TEST_P(InstancePropertyTest, DuplicateAddIsNoOpForEveryIndex) {
  Rng rng(0xC2B2AE3D27D4EB4Full);
  std::vector<Atom> atoms = RandomAtoms(rng, 120, 6, 10);
  Instance once;
  for (const Atom& a : atoms) once.Add(a);

  // Add everything again (reversed, to vary the probe order): every Add
  // must report "already present" and leave arena, ids and postings
  // untouched.
  Instance twice = once;
  const size_t size_before = twice.size();
  const size_t bytes_before = twice.MemoryBytes();
  for (auto it = atoms.rbegin(); it != atoms.rend(); ++it) {
    EXPECT_FALSE(twice.Add(*it)) << "duplicate Add reported insertion";
    Instance::AddOutcome outcome = twice.AddView(ViewOf(*it));
    EXPECT_FALSE(outcome.inserted);
    // The outcome id of a duplicate resolves to the original atom.
    EXPECT_EQ(twice.view(outcome.id), ViewOf(*it));
  }
  EXPECT_EQ(twice.size(), size_before);
  EXPECT_EQ(twice.MemoryBytes(), bytes_before);
  EXPECT_TRUE(once == twice);

  // Every index (predicate postings, per-argument postings, insertion
  // order) is unchanged, through the parameterized access path.
  EXPECT_EQ(AllAtoms(once), AllAtoms(twice));
  const Schema schema = once.InducedSchema();
  for (Predicate p : schema.predicates()) {
    EXPECT_EQ(Enumerate(once, p, GetParam()),
              Enumerate(twice, p, GetParam()));
    for (int pos = 0; pos < p.arity(); ++pos) {
      for (const Term& t : once.ActiveDomain()) {
        EXPECT_EQ(EnumerateArg(once, p, pos, t, GetParam()),
                  EnumerateArg(twice, p, pos, t, GetParam()));
      }
    }
  }
}

TEST_P(InstancePropertyTest, ViewsAndMaterializedAtomsAgreePerId) {
  Rng rng(0x165667B19E3779F9ull);
  std::vector<Atom> atoms = RandomAtoms(rng, 80, 4, 6);
  Instance inst;
  for (const Atom& a : atoms) inst.Add(a);
  for (AtomId id = 0; id < inst.size(); ++id) {
    Atom materialized = inst.MaterializeAtom(id);
    AtomView view = inst.view(id);
    EXPECT_EQ(view, ViewOf(materialized));
    EXPECT_EQ(view.Materialize(), materialized);
    EXPECT_EQ(view.hash(), AtomHash{}(materialized));
    EXPECT_EQ(inst.FindId(materialized), std::optional<AtomId>(id));
  }
}

TEST_P(InstancePropertyTest, ArgIdRangeWindowsMatchBruteForce) {
  Rng rng(0x27D4EB2F165667C5ull);
  std::vector<Atom> atoms = RandomAtoms(rng, 120, 3, 4);
  Instance inst;
  for (const Atom& a : atoms) inst.Add(a);
  for (int trial = 0; trial < 50; ++trial) {
    const AtomId at = static_cast<AtomId>(rng.Next() % inst.size());
    AtomView probe = inst.view(at);
    if (probe.arity() == 0) continue;
    const int pos = static_cast<int>(rng.Next() % probe.arity());
    const Term t = probe.arg(static_cast<size_t>(pos));
    AtomId lo = static_cast<AtomId>(rng.Next() % (inst.size() + 1));
    AtomId hi = static_cast<AtomId>(rng.Next() % (inst.size() + 1));
    if (lo > hi) std::swap(lo, hi);
    auto [first, last] = inst.ArgIdRange(probe.predicate(), pos, t, lo, hi);
    std::vector<AtomId> expected;
    for (AtomId id = lo; id < hi; ++id) {
      AtomView v = inst.view(id);
      if (v.predicate() == probe.predicate() &&
          pos < static_cast<int>(v.arity()) &&
          v.arg(static_cast<size_t>(pos)) == t) {
        expected.push_back(id);
      }
    }
    EXPECT_EQ(std::vector<AtomId>(first, last), expected)
        << "trial=" << trial << " lo=" << lo << " hi=" << hi;
  }
}

TEST(TermValidityTest, FactoriesProduceValidTermsDefaultDoesNot) {
  EXPECT_FALSE(Term().valid());
  EXPECT_TRUE(Term::Constant("a").valid());
  EXPECT_TRUE(Term::Variable("X").valid());
  EXPECT_TRUE(Term::NullWithId(0).valid());
}

#ifndef NDEBUG
using InstanceDeathTest = InstancePropertyTest;

TEST(InstanceDeathTest, AddOfInvalidTermAssertsUnderDebug) {
  Instance inst;
  Atom bad(Predicate::Get("R", 1), {Term()});  // default term: id -1
  EXPECT_DEATH(inst.Add(bad), "invalid");
}
#endif

/// Index consistency: every index must agree with a brute-force filter
/// over every atom.
class InstanceIndexConsistencyTest : public ::testing::Test {
 protected:
  static void CheckIndexes(const Instance& inst) {
    std::vector<Atom> all = AllAtoms(inst);
    ASSERT_EQ(all.size(), inst.size());
    const Schema schema = inst.InducedSchema();
    for (Predicate p : schema.predicates()) {
      std::vector<Atom> brute;
      for (const Atom& a : all) {
        if (a.predicate == p) brute.push_back(a);
      }
      EXPECT_EQ(Enumerate(inst, p, AccessPath::kMaterialized), brute);
      EXPECT_EQ(Enumerate(inst, p, AccessPath::kArenaViews), brute);
      // The packed predicate-major mirror (Postings span) is a third copy
      // of the same relation and must agree entry-for-entry, including
      // the id it reports for each entry.
      PostingsSpan span = inst.Postings(p);
      ASSERT_EQ(span.size(), brute.size());
      EXPECT_EQ(span.ids(), inst.IdsWith(p));
      for (size_t j = 0; j < span.size(); ++j) {
        EXPECT_EQ(span.view(j).Materialize(), brute[j]);
        EXPECT_EQ(inst.view(span.id(j)), span.view(j));
      }
      for (int pos = 0; pos < p.arity(); ++pos) {
        for (const Term& t : inst.ActiveDomain()) {
          std::vector<Atom> brute_arg;
          for (const Atom& a : brute) {
            if (a.args[static_cast<size_t>(pos)] == t) {
              brute_arg.push_back(a);
            }
          }
          EXPECT_EQ(EnumerateArg(inst, p, pos, t, AccessPath::kMaterialized),
                    brute_arg);
          EXPECT_EQ(EnumerateArg(inst, p, pos, t, AccessPath::kArenaViews),
                    brute_arg);
        }
      }
    }
  }
};

TEST_F(InstanceIndexConsistencyTest, RandomizedInstancesMatchBruteForce) {
  for (uint64_t salt : {1, 2, 8}) {
    Rng rng(0x2545F4914F6CDD1Dull + salt);
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<Atom> atoms = RandomAtoms(rng, 60 + 20 * trial, 5, 7);
      Instance inst;
      for (const Atom& a : atoms) inst.Add(a);
      CheckIndexes(inst);
    }
  }
}

TEST_F(InstanceIndexConsistencyTest, ChaseInstanceAfterManyDisjuncts) {
  // A containment check whose LHS rewriting fans out into many disjuncts,
  // each frozen into a fresh instance. The verdict must be kContained,
  // and the chase instance of the same OMQ must have internally
  // consistent indexes.
  Schema schema;
  schema.Add(Predicate::Get("Edge", 2));
  schema.Add(Predicate::Get("Conn", 2));
  TgdSet sigma = ParseTgds("Edge(X,Y) -> Conn(X,Y).").value();
  Omq q{schema, sigma,
        ParseQuery("Q(X0) :- Conn(X0,X1), Conn(X1,X2), Conn(X2,X3)")
            .value()};
  auto result = CheckContainment(q, q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->outcome, ContainmentOutcome::kContained);
  EXPECT_GT(result->candidates_checked, 1u);

  Database db = ParseDatabase(
                    "Edge(a,b). Edge(b,c). Edge(c,d). Edge(d,a). Edge(a,c).")
                    .value();
  ChaseResult chased = Chase(db, sigma).value();
  ASSERT_TRUE(chased.complete);
  CheckIndexes(chased.instance);
}

TEST_F(InstanceIndexConsistencyTest, ContainmentRunsTheIntersectionKernel) {
  // A containment check whose query bodies join through multi-bound atoms,
  // so candidate sets are built by the k-way postings intersection kernel.
  // The stats must show the kernel actually ran (intersections > 0) — a
  // silent fallback to single-list scans would pass the verdict check
  // without exercising the kernel at all.
  Schema schema;
  schema.Add(Predicate::Get("Edge", 2));
  schema.Add(Predicate::Get("Tri", 3));
  TgdSet sigma =
      ParseTgds("Edge(X,Y), Edge(Y,Z) -> Tri(X,Y,Z).").value();
  Omq q1{schema, sigma,
         ParseQuery("Q(X) :- Tri(X,Y,Z), Edge(Z,X), Edge(Y,Z)").value()};
  Omq q2{schema, sigma, ParseQuery("Q(X) :- Tri(X,Y,Z), Edge(Y,Z)").value()};
  auto forward = CheckContainment(q1, q2);
  ASSERT_TRUE(forward.ok()) << forward.status().ToString();
  EXPECT_EQ(forward->outcome, ContainmentOutcome::kContained);
  EXPECT_GT(forward->stats.hom.postings_intersections, 0u);
  // The reverse direction has to refute candidate homomorphisms: the
  // Edge(Z,X) back-edge is not implied.
  auto reverse = CheckContainment(q2, q1);
  ASSERT_TRUE(reverse.ok()) << reverse.status().ToString();
  EXPECT_EQ(reverse->outcome, ContainmentOutcome::kNotContained);
}

}  // namespace
}  // namespace omqc
