#include "soak/scenario.h"

#include <algorithm>

#include "base/rng.h"
#include "base/string_util.h"

namespace omqc {
namespace {

Term V(const std::string& name) { return Term::Variable(name); }
Term C(const std::string& name) { return Term::Constant(name); }

std::vector<Term> LevelVars(int w) {
  std::vector<Term> vars;
  for (int j = 1; j <= w; ++j) vars.push_back(V(StrCat("X", j)));
  return vars;
}

/// One chain under construction (the main chain or a decoy). `prefix`
/// namespaces the chain's predicates, `cprefix` its constants; `anchor`
/// is the constant currently threaded through position 1.
struct Chain {
  std::string prefix;
  std::string cprefix;
  int w;
  Program* program;
  std::string anchor;

  std::string Level(int i) const { return StrCat(prefix, i); }
  std::string Aux(const char* tag, int i) const {
    return StrCat(prefix, tag, i);
  }
};

void AddTgd(Chain& c, std::vector<Atom> body, std::vector<Atom> head) {
  c.program->tgds.tgds.emplace_back(std::move(body), std::move(head));
}

/// Stamps one tile between levels i and i+1. Every tile keeps the anchor
/// at position 1 derivable (the polarity certificate's invariant); kWalk
/// additionally advances `c.anchor` along its fact chain.
void Stamp(Chain& c, int i, TileKind kind, int walk_depth) {
  std::vector<Term> vars = LevelVars(c.w);
  switch (kind) {
    case TileKind::kCopy: {
      AddTgd(c, {Atom::Make(c.Level(i), vars)},
             {Atom::Make(c.Level(i + 1), vars)});
      break;
    }
    case TileKind::kRotate: {
      // Position 1 fixed, the tail rotated by one: lossless, linear.
      std::vector<Term> head{vars[0]};
      for (int j = 2; j < c.w; ++j) head.push_back(vars[j]);
      head.push_back(vars[1]);
      AddTgd(c, {Atom::Make(c.Level(i), vars)},
             {Atom::Make(c.Level(i + 1), head)});
      break;
    }
    case TileKind::kExists: {
      // Drop the last position for a fresh existential — not lossless,
      // so never offered to sticky chains.
      std::vector<Term> head(vars.begin(), vars.end() - 1);
      head.push_back(V("Z"));
      AddTgd(c, {Atom::Make(c.Level(i), vars)},
             {Atom::Make(c.Level(i + 1), head)});
      break;
    }
    case TileKind::kJoin: {
      // Side-join on the anchor position, supported by a fact at the
      // current anchor so derivability survives.
      AddTgd(c,
             {Atom::Make(c.Level(i), vars),
              Atom::Make(c.Aux("Side", i), {vars[0]})},
             {Atom::Make(c.Level(i + 1), vars)});
      c.program->facts.Add(Atom::Make(c.Aux("Side", i), {C(c.anchor)}));
      break;
    }
    case TileKind::kForkMerge: {
      AddTgd(c, {Atom::Make(c.Level(i), vars)},
             {Atom::Make(c.Aux("FkA", i), vars),
              Atom::Make(c.Aux("FkB", i), vars)});
      AddTgd(c,
             {Atom::Make(c.Aux("FkA", i), vars),
              Atom::Make(c.Aux("FkB", i), vars)},
             {Atom::Make(c.Level(i + 1), vars)});
      break;
    }
    case TileKind::kWalk: {
      // Guarded recursion: collapse the level to its anchor, walk a fact
      // chain (Walk_i guards the recursive step), re-expand with fresh
      // existentials. The anchor moves to the end of the chain.
      Term x = V("X1"), y = V("Y");
      AddTgd(c, {Atom::Make(c.Level(i), vars)},
             {Atom::Make(c.Aux("Hop", i), {x})});
      AddTgd(c,
             {Atom::Make(c.Aux("Walk", i), {x, y}),
              Atom::Make(c.Aux("Hop", i), {x})},
             {Atom::Make(c.Aux("Hop", i), {y})});
      std::vector<Term> head{x};
      for (int j = 2; j <= c.w; ++j) head.push_back(V(StrCat("Z", j)));
      AddTgd(c, {Atom::Make(c.Aux("Hop", i), {x})},
             {Atom::Make(c.Level(i + 1), head)});
      std::string from = c.anchor;
      for (int k = 1; k <= walk_depth; ++k) {
        std::string to = StrCat(c.cprefix, "w", i, "_", k);
        c.program->facts.Add(Atom::Make(c.Aux("Walk", i), {C(from), C(to)}));
        from = to;
      }
      c.anchor = from;
      break;
    }
  }
}

/// Tiles legal for `klass` at width `w` — the class invariant lives here:
/// sticky chains only see lossless tiles, linear chains only single-atom
/// bodies, and only guarded chains may recurse.
std::vector<TileKind> AllowedKinds(TgdClass klass, int w) {
  std::vector<TileKind> kinds{TileKind::kCopy};
  const bool wide = w >= 2;
  switch (klass) {
    case TgdClass::kLinear:
      if (wide) {
        kinds.push_back(TileKind::kRotate);
        kinds.push_back(TileKind::kExists);
      }
      break;
    case TgdClass::kSticky:
      if (wide) kinds.push_back(TileKind::kRotate);
      kinds.push_back(TileKind::kJoin);
      kinds.push_back(TileKind::kForkMerge);
      break;
    case TgdClass::kNonRecursive:
      if (wide) {
        kinds.push_back(TileKind::kRotate);
        kinds.push_back(TileKind::kExists);
      }
      kinds.push_back(TileKind::kJoin);
      kinds.push_back(TileKind::kForkMerge);
      break;
    case TgdClass::kGuarded:
      if (wide) {
        kinds.push_back(TileKind::kRotate);
        kinds.push_back(TileKind::kExists);
      }
      kinds.push_back(TileKind::kJoin);
      kinds.push_back(TileKind::kForkMerge);
      kinds.push_back(TileKind::kWalk);
      break;
    default:
      break;  // copy-only chain for anything else
  }
  return kinds;
}

/// The tile forced at level 0 so the chain genuinely exhibits its class
/// (a chain of copies would classify as linear regardless of target).
TileKind SignatureKind(TgdClass klass, int w) {
  switch (klass) {
    case TgdClass::kSticky:
      return TileKind::kJoin;
    case TgdClass::kNonRecursive:
      return TileKind::kForkMerge;
    case TgdClass::kGuarded:
      return TileKind::kWalk;
    default:
      return w >= 2 ? TileKind::kExists : TileKind::kCopy;
  }
}

}  // namespace

std::string ScenarioSpec::ToString() const {
  return StrCat("seed=", seed, " class=", TgdClassToString(tgd_class),
                " len=", length, " w=", width, " depth=", walk_depth,
                " decoys=", decoy_tiles,
                " polarity=", contained ? "contained" : "not_contained");
}

ScenarioSpec SpecForIndex(uint64_t seed, uint64_t index) {
  SplitMix64 rng = SplitMix64(seed).Fork(index);
  ScenarioSpec spec;
  spec.seed = rng.Next();
  uint64_t r = rng.Below(100);
  spec.tgd_class = r < 30   ? TgdClass::kLinear
                   : r < 55 ? TgdClass::kSticky
                   : r < 80 ? TgdClass::kNonRecursive
                            : TgdClass::kGuarded;
  spec.length = static_cast<int>(rng.Between(2, 6));
  spec.width = static_cast<int>(rng.Between(1, 3));
  spec.walk_depth = static_cast<int>(rng.Between(1, 3));
  spec.decoy_tiles = static_cast<int>(rng.Below(3));
  spec.contained = rng.Chance(55);
  return spec;
}

Scenario MakeScenario(const ScenarioSpec& spec) {
  Scenario out;
  out.spec = spec;
  SplitMix64 rng = SplitMix64(spec.seed).Fork(0x50AC);
  const int w = std::max(1, spec.width);
  const int n = std::max(1, spec.length);
  const int depth = std::max(1, spec.walk_depth);

  Chain main{"T", "", w, &out.program, "a0"};
  std::vector<Term> base{C("a0")};
  for (int j = 1; j < w; ++j) base.push_back(C(StrCat("b", j)));
  out.program.facts.Add(Atom::Make("T0", base));

  std::vector<TileKind> allowed = AllowedKinds(spec.tgd_class, w);
  for (int i = 0; i < n; ++i) {
    TileKind kind = i == 0 ? SignatureKind(spec.tgd_class, w)
                           : allowed[rng.Below(allowed.size())];
    Stamp(main, i, kind, depth);
    out.tiles.push_back(kind);
  }

  // A decoy chain of the same tile family, disconnected from the queries:
  // widens the rewriting/chase search space without touching polarity.
  if (spec.decoy_tiles > 0) {
    Chain decoy{"D", "d", w, &out.program, "da0"};
    std::vector<Term> dbase{C("da0")};
    for (int j = 1; j < w; ++j) dbase.push_back(C(StrCat("db", j)));
    out.program.facts.Add(Atom::Make("D0", dbase));
    for (int i = 0; i < spec.decoy_tiles; ++i) {
      Stamp(decoy, i, allowed[rng.Below(allowed.size())], 1);
    }
  }

  // Q1(V1) :- Tn(V1..Vw), Probe(V1) — the Probe fact on the final anchor
  // makes Q1 nonempty exactly along the certified derivation.
  std::vector<Term> qvars;
  for (int j = 1; j <= w; ++j) qvars.push_back(V(StrCat("V", j)));
  std::vector<Atom> q1_body{Atom::Make(StrCat("T", n), qvars),
                            Atom::Make("Probe", {qvars[0]})};
  ConjunctiveQuery q1({qvars[0]}, q1_body);
  out.program.facts.Add(Atom::Make("Probe", {C(main.anchor)}));

  ConjunctiveQuery q2;
  if (spec.contained) {
    // Each variant admits a homomorphism Q2 → Q1 fixing the answer
    // variable, certifying Q1 ⊆ Q2 under the shared ontology.
    switch (rng.Below(3)) {
      case 0:  // drop the probe join: strictly weaker
        q2 = ConjunctiveQuery({qvars[0]}, {q1_body[0]});
        break;
      case 1:  // unjoin the probe (fresh U maps onto V1)
        q2 = ConjunctiveQuery(
            {qvars[0]}, {q1_body[0], Atom::Make("Probe", {V("U")})});
        break;
      default:  // verbatim: equivalence
        q2 = q1;
        break;
    }
    out.expected = ContainmentOutcome::kContained;
  } else {
    // Marker occurs in no fact and no tgd head, so no rewriting disjunct
    // of Q1 can satisfy it: the first frozen candidate refutes.
    std::vector<Atom> body = q1_body;
    body.push_back(Atom::Make("Marker", {qvars[0]}));
    q2 = ConjunctiveQuery({qvars[0]}, std::move(body));
    out.expected = ContainmentOutcome::kNotContained;
  }
  out.program.queries.push_back(NamedQuery{kLhsQuery, std::move(q1)});
  out.program.queries.push_back(NamedQuery{kRhsQuery, std::move(q2)});

  out.witness_tuple = {C(main.anchor)};
  out.program_text = SerializeProgram(out.program);
  return out;
}

bool SatisfiesClass(const TgdSet& tgds, TgdClass target) {
  switch (target) {
    case TgdClass::kEmpty:
      return tgds.tgds.empty();
    case TgdClass::kLinear:
      return IsLinear(tgds);
    case TgdClass::kSticky:
      return IsSticky(tgds);
    case TgdClass::kNonRecursive:
      return IsNonRecursive(tgds);
    case TgdClass::kGuarded:
      return IsGuarded(tgds);
    case TgdClass::kFull:
      return IsFull(tgds);
    default:
      return true;
  }
}

}  // namespace omqc
