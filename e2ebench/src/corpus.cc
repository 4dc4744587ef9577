#include "corpus.h"

#include <functional>
#include <utility>

#include "base/string_util.h"
#include "tgd/parser.h"
#include "util.h"

namespace e2e {

using omqc::Atom;
using omqc::ContainmentOutcome;
using omqc::Scenario;
using omqc::ScenarioSpec;
using omqc::SplitMix64;
using omqc::StrCat;
using omqc::Term;
using omqc::TgdClass;
using omqc::TileKind;

namespace {

int CountTiles(const Scenario& s, TileKind kind) {
  int n = 0;
  for (TileKind t : s.tiles) n += t == kind ? 1 : 0;
  return n;
}

/// Ranges of the factory's size knobs a stratum draws from.
struct Shape {
  int min_length, max_length;
  int min_width, max_width;
  int min_depth, max_depth;
  int min_decoys, max_decoys;
};

/// The ranges SpecForIndex uses.
constexpr Shape kFactoryShape{2, 6, 1, 3, 1, 3, 0, 2};

/// Guarded scenarios at the soak budget: smaller chains, and always a
/// decoy chain — without one a few contained scenarios take 5-50x the
/// stratum's typical time, which no run of this length averages out.
constexpr Shape kGuardedShape{2, 4, 1, 2, 1, 2, 1, 2};

/// Draws factory scenarios of one class and polarity until `accept`
/// holds.
Scenario Draw(SplitMix64& rng, TgdClass klass, bool contained,
              const std::function<bool(const Scenario&)>& accept,
              const Shape& shape = kFactoryShape) {
  auto between = [&rng](int lo, int hi) {
    return static_cast<int>(rng.Between(static_cast<uint64_t>(lo),
                                        static_cast<uint64_t>(hi)));
  };
  for (int attempt = 0; attempt < 100000; ++attempt) {
    ScenarioSpec spec;
    spec.seed = rng.Next();
    spec.tgd_class = klass;
    spec.length = between(shape.min_length, shape.max_length);
    spec.width = between(shape.min_width, shape.max_width);
    spec.walk_depth = between(shape.min_depth, shape.max_depth);
    spec.decoy_tiles = between(shape.min_decoys, shape.max_decoys);
    spec.contained = contained;
    Scenario s = omqc::MakeScenario(spec);
    if (accept(s)) return s;
  }
  Fail(StrCat("no scenario of class ", omqc::TgdClassToString(klass),
              " met its stratum after 100000 draws"));
}

DecideRequest FromScenario(const Scenario& s) {
  DecideRequest r;
  r.lhs_text = s.program_text;
  r.expected = s.expected;
  return r;
}

/// Level variables X1..Xw.
std::vector<Term> LevelVars(int w) {
  std::vector<Term> vars;
  for (int j = 1; j <= w; ++j) vars.push_back(Term::Variable(StrCat("X", j)));
  return vars;
}

/// X1 followed by fresh existentials Z2..Zw.
std::vector<Term> AnchorThenFresh(int w) {
  std::vector<Term> head{Term::Variable("X1")};
  for (int j = 2; j <= w; ++j) head.push_back(Term::Variable(StrCat("Z", j)));
  return head;
}

bool SideConditionFree(TileKind kind) {
  return kind == TileKind::kCopy || kind == TileKind::kRotate ||
         kind == TileKind::kExists || kind == TileKind::kForkMerge;
}

template <typename T>
void Shuffle(std::vector<T>& items, SplitMix64& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(i)]);
  }
}

std::vector<DecideRequest> UcqBlock(SplitMix64& rng) {
  // Per class and polarity: two light scenarios, one with two fork-merge
  // tiles and one with three (subsumption pruning grows with them).
  struct Quota {
    int min_fm;
    int max_fm;
  };
  static constexpr Quota kForkMergeQuotas[] = {{0, 1}, {0, 1}, {2, 2}, {3, 3}};
  std::vector<DecideRequest> block;
  for (TgdClass klass :
       {TgdClass::kLinear, TgdClass::kSticky, TgdClass::kNonRecursive}) {
    for (bool contained : {true, false}) {
      for (const Quota& q : kForkMergeQuotas) {
        Scenario s = Draw(rng, klass, contained, [&](const Scenario& c) {
          if (klass == TgdClass::kLinear) return true;
          int fm = CountTiles(c, TileKind::kForkMerge);
          return fm >= q.min_fm && fm <= q.max_fm;
        });
        block.push_back(FromScenario(s));
      }
    }
  }
  return block;
}

std::vector<DecideRequest> GuardedBlock(SplitMix64& rng) {
  // Eight contained requests (UNKNOWN today: six factory scenarios and
  // the two variants) and four refutable ones, so the median lands among
  // the contained requests. Contained bases recurse through two or more
  // walk tiles: with a single one the bounded enumeration takes ~1 s, and
  // those few requests would dominate every figure of a run. Width and
  // walk count set most of a contained request's cost, so each block
  // holds the same number of each.
  std::vector<DecideRequest> block;
  auto shaped = [](int width, int min_walks, int max_walks) {
    return [=](const Scenario& s) {
      int walks = CountTiles(s, TileKind::kWalk);
      return s.spec.width == width && walks >= min_walks && walks <= max_walks;
    };
  };
  auto contained = [&](const std::function<bool(const Scenario&)>& accept) {
    return Draw(rng, TgdClass::kGuarded, true, accept, kGuardedShape);
  };
  for (int width : {1, 2}) {
    block.push_back(FromScenario(contained(shaped(width, 2, 2))));
    block.push_back(FromScenario(contained(shaped(width, 2, 2))));
    block.push_back(FromScenario(contained(shaped(width, 3, 4))));
  }
  block.push_back(MakeRhsExtension(contained(shaped(1, 2, 2)), rng));
  DecideRequest cut;
  auto cut_base = shaped(2, 2, 2);
  contained([&](const Scenario& s) {
    return cut_base(s) && MakeLhsCut(s, &cut);
  });
  block.push_back(std::move(cut));
  for (int i = 0; i < 4; ++i) {
    block.push_back(FromScenario(Draw(
        rng, TgdClass::kGuarded, false, [](const Scenario&) { return true; },
        kGuardedShape)));
  }
  return block;
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kDecideUcq:
      return "decide_ucq";
    case Workload::kDecideGuarded:
      return "decide_guarded";
    case Workload::kServeBurst:
      return "serve_burst";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kDecideUcq, Workload::kDecideGuarded,
                     Workload::kServeBurst}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kFactory:
      return "factory";
    case RequestKind::kRhsExtension:
      return "rhs_extension";
    case RequestKind::kLhsCut:
      return "lhs_cut";
  }
  return "?";
}

DecideRequest MakeRhsExtension(const Scenario& base, SplitMix64& rng) {
  const int n = static_cast<int>(base.tiles.size());
  const int w = base.spec.width;
  omqc::Program rhs = base.program;
  auto level = [](int i) { return StrCat("T", i); };
  // A linear shortcut over one tile and a guarded side rule into the next
  // level, both into Σ1's level predicates and over its existing
  // predicates (so the inferred data schema is unchanged). Certain answers
  // only grow with the ontology, so the base's containment is preserved.
  if (n >= 2) {
    int i = static_cast<int>(rng.Below(static_cast<uint64_t>(n - 1)));
    rhs.tgds.tgds.emplace_back(
        std::vector<Atom>{Atom::Make(level(i), LevelVars(w))},
        std::vector<Atom>{Atom::Make(level(i + 2), AnchorThenFresh(w))});
  }
  int j = static_cast<int>(rng.Below(static_cast<uint64_t>(n)));
  rhs.tgds.tgds.emplace_back(
      std::vector<Atom>{Atom::Make(level(j), LevelVars(w)),
                        Atom::Make("Probe", {Term::Variable("X1")})},
      std::vector<Atom>{Atom::Make(level(j + 1), AnchorThenFresh(w))});
  DecideRequest r = FromScenario(base);
  r.rhs_text = omqc::SerializeProgram(rhs);
  r.kind = RequestKind::kRhsExtension;
  r.expected = ContainmentOutcome::kContained;
  return r;
}

bool MakeLhsCut(const Scenario& base, DecideRequest* out) {
  if (base.expected != ContainmentOutcome::kContained) return false;
  const int n = static_cast<int>(base.tiles.size());
  int k = n;
  while (k > 1 && SideConditionFree(base.tiles[static_cast<size_t>(k - 1)])) {
    --k;
  }
  if (k >= n) return false;
  // Every tile from Tk to Tn keeps the anchor at position 1 with no side
  // condition, so Tk(V̄) ∧ Probe(V1) entails Q2's Tn(V1, ...) — but only
  // through the chase.
  omqc::Program lhs = base.program;
  for (omqc::NamedQuery& nq : lhs.queries) {
    if (nq.name != omqc::kLhsQuery) continue;
    Atom& top = nq.query.body.front();
    top = Atom::Make(StrCat("T", k), top.args);
  }
  *out = FromScenario(base);
  out->lhs_text = omqc::SerializeProgram(lhs);
  out->kind = RequestKind::kLhsCut;
  out->expected = ContainmentOutcome::kContained;
  return true;
}

std::vector<DecideRequest> DecideBlock(Workload workload, uint64_t seed,
                                       uint64_t block) {
  SplitMix64 rng = SplitMix64(seed).Fork(block);
  std::vector<DecideRequest> requests = workload == Workload::kDecideUcq
                                            ? UcqBlock(rng)
                                            : GuardedBlock(rng);
  Shuffle(requests, rng);
  return requests;
}

omqc::ContainmentOptions DecideOptions(Workload workload) {
  omqc::ContainmentOptions options;
  if (workload == Workload::kDecideGuarded) {
    options.rewrite.max_queries = 120;
    options.rewrite.max_steps = 20000;
    options.rewrite.prune_subsumed = true;
  }
  return options;
}

BurstProgram BurstProgramAt(uint64_t seed, uint64_t index) {
  SplitMix64 rng = SplitMix64(seed ^ 0x5e12e5b1a57ULL).Fork(index);
  Scenario s = Draw(rng, TgdClass::kLinear, index % 2 == 0,
                    [](const Scenario&) { return true; });
  BurstProgram p;
  p.text = s.program_text;
  p.expected = s.expected;
  p.witness = s.witness_tuple.front().ToString();
  return p;
}

std::string CorpusHash(Workload workload, uint64_t seed) {
  uint64_t h = kFnvOffset;
  auto mix = [&h](const std::string& text, int expected) {
    h = Fnv1a(text, h);
    h = Fnv1a(StrCat("\x1f", expected, "\x1e"), h);
  };
  if (workload == Workload::kServeBurst) {
    for (uint64_t i = 0; i < 32; ++i) {
      BurstProgram p = BurstProgramAt(seed, i);
      mix(p.text + "\x1f" + p.witness, static_cast<int>(p.expected));
    }
  } else {
    for (uint64_t b = 0; b < 2; ++b) {
      for (const DecideRequest& r : DecideBlock(workload, seed, b)) {
        mix(r.lhs_text + "\x1f" + r.rhs_text, static_cast<int>(r.expected));
      }
    }
  }
  return Hex64(h);
}

DecideRequest WarmupRequest() {
  ScenarioSpec spec;
  spec.seed = 7;
  spec.tgd_class = TgdClass::kLinear;
  spec.length = 4;
  spec.width = 2;
  spec.decoy_tiles = 1;
  spec.contained = true;
  return FromScenario(omqc::MakeScenario(spec));
}

}  // namespace e2e
