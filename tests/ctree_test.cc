// Tests for the Sec. 5 C-tree machinery: tree decompositions, guarded
// unraveling (Lemma 37), the ΓS,l encoding, consistency and decoding
// (Lemmas 22/41).

#include <gtest/gtest.h>

#include "core/ctree.h"
#include "logic/homomorphism.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

Database Db(const std::string& text) { return ParseDatabase(text).value(); }

/// A small C-tree by hand: core {a,b} with R(a,b), and a tree part
/// R(b,c), R(c,d).
struct HandMadeCTree {
  Database db = Db("R(a,b). R(b,c). R(c,d).");
  Instance core = Db("R(a,b).");
  TreeDecomposition decomposition;

  HandMadeCTree() {
    decomposition.bags = {{Term::Constant("a"), Term::Constant("b")},
                          {Term::Constant("b"), Term::Constant("c")},
                          {Term::Constant("c"), Term::Constant("d")}};
    decomposition.parent = {-1, 0, 1};
  }
};

TEST(DecompositionTest, ValidatesHandMadeCTree) {
  HandMadeCTree fixture;
  EXPECT_TRUE(
      ValidateDecomposition(fixture.decomposition, fixture.db).ok());
  EXPECT_TRUE(IsGuardedExcept(fixture.decomposition, fixture.db, {0}));
  EXPECT_TRUE(
      ValidateCTree(fixture.decomposition, fixture.db, fixture.core).ok());
  EXPECT_EQ(fixture.decomposition.Width(), 1);
}

TEST(DecompositionTest, RejectsAtomOutsideBags) {
  HandMadeCTree fixture;
  fixture.db.Add(ParseAtom("R(a,d)").value());  // spans bags 0 and 2
  EXPECT_FALSE(
      ValidateDecomposition(fixture.decomposition, fixture.db).ok());
}

TEST(DecompositionTest, RejectsDisconnectedTermOccurrences) {
  TreeDecomposition decomposition;
  decomposition.bags = {{Term::Constant("a")},
                        {Term::Constant("b")},
                        {Term::Constant("a")}};  // 'a' in bags 0 and 2 only
  decomposition.parent = {-1, 0, 1};
  Database db = Db("P(a). P(b).");
  EXPECT_FALSE(ValidateDecomposition(decomposition, db).ok());
}

TEST(DecompositionTest, GuardednessFailsWithoutCoveringAtom) {
  TreeDecomposition decomposition;
  decomposition.bags = {{Term::Constant("a")},
                        {Term::Constant("a"), Term::Constant("b")}};
  decomposition.parent = {-1, 0};
  Database db = Db("P(a). P(b).");  // no atom covers {a,b}
  EXPECT_TRUE(ValidateDecomposition(decomposition, db).ok());
  EXPECT_FALSE(IsGuardedExcept(decomposition, db, {0}));
  EXPECT_TRUE(IsGuardedExcept(decomposition, db, {0, 1}));
}

TEST(UnravelTest, ProducesValidCTree) {
  Database db = Db("R(a,b). R(b,c). R(c,a). P(b).");
  auto unraveling =
      GuardedUnravel(db, {Term::Constant("a"), Term::Constant("b")}, 3);
  ASSERT_TRUE(unraveling.ok()) << unraveling.status().ToString();
  Instance core =
      unraveling->instance.InducedBy(unraveling->decomposition.bags[0]);
  EXPECT_TRUE(ValidateCTree(unraveling->decomposition,
                            unraveling->instance, core)
                  .ok());
}

TEST(UnravelTest, BackHomomorphismIsSound) {
  Database db = Db("R(a,b). R(b,c). R(c,a).");
  auto unraveling = GuardedUnravel(db, {Term::Constant("a")}, 4).value();
  // Every atom of the unraveling maps back into D.
  for (AtomId id = 0; id < unraveling.instance.size(); ++id) {
    Atom atom = unraveling.instance.MaterializeAtom(id);
    Atom mapped = unraveling.back_homomorphism.Apply(atom);
    EXPECT_TRUE(db.Contains(mapped)) << atom.ToString();
  }
}

TEST(UnravelTest, UnravelingBreaksCycles) {
  // The 3-cycle R(a,b),R(b,c),R(c,a) has no C-tree decomposition of width
  // 1 keeping all three atoms in distinct bags... the unraveling around
  // {a} is acyclic: the cycle query does not map into it while shorter
  // paths do.
  Database db = Db("R(a,b). R(b,c). R(c,a).");
  auto unraveling = GuardedUnravel(db, {Term::Constant("a")}, 5).value();
  ConjunctiveQuery cycle =
      ParseQuery("Q() :- R(X,Y), R(Y,Z), R(Z,X)").value();
  EXPECT_FALSE(HoldsIn(cycle, unraveling.instance));
  ConjunctiveQuery path =
      ParseQuery("Q() :- R(X,Y), R(Y,Z), R(Z,W)").value();
  EXPECT_TRUE(HoldsIn(path, unraveling.instance));
}

TEST(EncodingTest, RoundTripPreservesTheDatabase) {
  HandMadeCTree fixture;
  auto encoded =
      EncodeCTree(fixture.db, fixture.decomposition, fixture.core, 2);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  EXPECT_TRUE(CheckConsistency(*encoded).ok());
  auto decoded = DecodeTree(*encoded);
  ASSERT_TRUE(decoded.ok());
  // The decoded database is isomorphic to the original: same size, and
  // each maps homomorphically into the other.
  EXPECT_EQ(decoded->size(), fixture.db.size());
  ConjunctiveQuery chain =
      ParseQuery("Q() :- R(X,Y), R(Y,Z), R(Z,W)").value();
  EXPECT_TRUE(HoldsIn(chain, *decoded));
}

TEST(EncodingTest, CoreMarkersPropagate) {
  HandMadeCTree fixture;
  EncodedTree encoded =
      EncodeCTree(fixture.db, fixture.decomposition, fixture.core, 2)
          .value();
  // The root carries core markers for its names.
  EXPECT_FALSE(encoded.labels[0].core_names.empty());
  // Condition (4): any core marker deeper in the tree also sits on its
  // parent (checked by CheckConsistency, evidenced here).
  EXPECT_TRUE(CheckConsistency(encoded).ok());
}

TEST(EncodingTest, ConsistencyCatchesStrayCoreMarker) {
  HandMadeCTree fixture;
  EncodedTree encoded =
      EncodeCTree(fixture.db, fixture.decomposition, fixture.core, 2)
          .value();
  // Inject a core marker at a leaf whose parent lacks it.
  EncodedTree broken = encoded;
  int stray = 1;  // a core name not present at node 2's parent chain...
  broken.labels[2].names.insert(stray);
  broken.labels[2].core_names.insert(stray);
  EXPECT_FALSE(CheckConsistency(broken).ok());
}

TEST(EncodingTest, ConsistencyCatchesUndeclaredAtomArguments) {
  HandMadeCTree fixture;
  EncodedTree encoded =
      EncodeCTree(fixture.db, fixture.decomposition, fixture.core, 2)
          .value();
  EncodedTree broken = encoded;
  broken.labels[1].atoms.insert(
      {Predicate::Get("R", 2), std::vector<int>{7, 8}});
  EXPECT_FALSE(CheckConsistency(broken).ok());
}

TEST(EncodingTest, ConsistencyCatchesUnguardedNode) {
  // A node with two names but no covering atom anywhere b-connected.
  EncodedTree tree;
  tree.l = 1;
  tree.width = 2;
  tree.labels.resize(2);
  tree.parent = {-1, 0};
  tree.labels[0].names = {0};
  tree.labels[0].core_names = {0};
  tree.labels[0].atoms.insert(
      {Predicate::Get("P", 1), std::vector<int>{0}});
  tree.labels[1].names = {1, 2};
  // No atom covering {1,2}: condition (5) fails.
  EXPECT_FALSE(CheckConsistency(tree).ok());
  tree.labels[1].atoms.insert(
      {Predicate::Get("R", 2), std::vector<int>{1, 2}});
  EXPECT_TRUE(CheckConsistency(tree).ok());
}

TEST(DecodingTest, SharedNamesMergeAcrossNeighbors) {
  // The root and its child share name 1: both occurrences decode to one
  // constant; names 0 (root) and 2 (child, a tree name) stay distinct.
  EncodedTree tree;
  tree.l = 2;
  tree.width = 2;
  tree.labels.resize(2);
  tree.parent = {-1, 0};
  tree.labels[0].names = {0, 1};
  tree.labels[0].core_names = {0, 1};
  tree.labels[0].atoms.insert(
      {Predicate::Get("R", 2), std::vector<int>{0, 1}});
  tree.labels[1].names = {1, 2};
  tree.labels[1].core_names = {1};
  tree.labels[1].atoms.insert(
      {Predicate::Get("R", 2), std::vector<int>{1, 2}});
  ASSERT_TRUE(CheckConsistency(tree).ok()) << CheckConsistency(tree).ToString();
  Database decoded = DecodeTree(tree).value();
  EXPECT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded.ActiveDomain().size(), 3u);  // 1 shared, 0 and 2 distinct
}

TEST(DecodingTest, NameReuseInDisconnectedBranchesStaysDistinct) {
  // Name 5 used in two sibling subtrees with a parent lacking it: the
  // decodings must be different constants.
  EncodedTree tree;
  tree.l = 1;
  tree.width = 1;
  tree.labels.resize(3);
  tree.parent = {-1, 0, 0};
  tree.labels[0].names = {0};
  tree.labels[0].core_names = {0};
  tree.labels[0].atoms.insert(
      {Predicate::Get("P", 1), std::vector<int>{0}});
  tree.labels[1].names = {1};
  tree.labels[1].atoms.insert(
      {Predicate::Get("P", 1), std::vector<int>{1}});
  tree.labels[2].names = {1};
  tree.labels[2].atoms.insert(
      {Predicate::Get("Q", 1), std::vector<int>{1}});
  ASSERT_TRUE(CheckConsistency(tree).ok());
  Database decoded = DecodeTree(tree).value();
  EXPECT_EQ(decoded.ActiveDomain().size(), 3u);
}

}  // namespace
}  // namespace omqc
