#include "tgd/classify.h"

#include <algorithm>
#include <functional>

#include "base/string_util.h"

namespace omqc {

const char* TgdClassToString(TgdClass c) {
  switch (c) {
    case TgdClass::kEmpty:
      return "EMPTY";
    case TgdClass::kLinear:
      return "LINEAR";
    case TgdClass::kGuarded:
      return "GUARDED";
    case TgdClass::kNonRecursive:
      return "NON_RECURSIVE";
    case TgdClass::kSticky:
      return "STICKY";
    case TgdClass::kFull:
      return "FULL";
    case TgdClass::kGeneral:
      return "GENERAL";
  }
  return "UNKNOWN";
}

bool IsLinear(const TgdSet& tgds) {
  for (const Tgd& tgd : tgds.tgds) {
    if (tgd.body.size() > 1) return false;
  }
  return true;
}

bool IsGuarded(const TgdSet& tgds) {
  for (const Tgd& tgd : tgds.tgds) {
    if (tgd.body.empty()) continue;  // fact tgds are trivially guarded
    std::vector<Term> body_vars = tgd.BodyVariables();
    bool has_guard = false;
    for (const Atom& a : tgd.body) {
      bool guards_all = true;
      for (const Term& v : body_vars) {
        if (std::find(a.args.begin(), a.args.end(), v) == a.args.end()) {
          guards_all = false;
          break;
        }
      }
      if (guards_all) {
        has_guard = true;
        break;
      }
    }
    if (!has_guard) return false;
  }
  return true;
}

bool IsFull(const TgdSet& tgds) {
  for (const Tgd& tgd : tgds.tgds) {
    if (!tgd.ExistentialVariables().empty()) return false;
  }
  return true;
}

namespace {

/// Predicate graph: edge body-pred -> head-pred per tgd.
std::map<Predicate, std::set<Predicate>> PredicateGraph(const TgdSet& tgds) {
  std::map<Predicate, std::set<Predicate>> graph;
  for (const Tgd& tgd : tgds.tgds) {
    for (const Atom& b : tgd.body) {
      for (const Atom& h : tgd.head) {
        graph[b.predicate].insert(h.predicate);
      }
      graph.try_emplace(b.predicate);
    }
    for (const Atom& h : tgd.head) graph.try_emplace(h.predicate);
  }
  return graph;
}

}  // namespace

bool IsNonRecursive(const TgdSet& tgds) {
  auto graph = PredicateGraph(tgds);
  // Iterative DFS cycle detection, colors: 0 white, 1 gray, 2 black.
  std::map<Predicate, int> color;
  for (const auto& [p, _] : graph) color[p] = 0;
  std::function<bool(Predicate)> has_cycle = [&](Predicate p) {
    color[p] = 1;
    for (const Predicate& succ : graph[p]) {
      if (color[succ] == 1) return true;
      if (color[succ] == 0 && has_cycle(succ)) return true;
    }
    color[p] = 2;
    return false;
  };
  for (const auto& [p, _] : graph) {
    if (color[p] == 0 && has_cycle(p)) return false;
  }
  return true;
}

StickyMarking ComputeStickyMarking(const TgdSet& tgds) {
  StickyMarking result;
  result.marked.resize(tgds.size());

  // pos(α, x): positions of x in atom α.
  auto positions_of = [](const Atom& atom, const Term& x) {
    std::vector<int> out;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (atom.args[i] == x) out.push_back(static_cast<int>(i));
    }
    return out;
  };

  // Base step (Def. 4, case 1): x marked in σ if some head atom omits x.
  for (size_t i = 0; i < tgds.size(); ++i) {
    const Tgd& tgd = tgds.tgds[i];
    for (const Term& x : tgd.BodyVariables()) {
      for (const Atom& h : tgd.head) {
        if (std::find(h.args.begin(), h.args.end(), x) == h.args.end()) {
          result.marked[i].insert(x);
          break;
        }
      }
    }
  }

  // Inductive step (Def. 4, case 2): propagate head-to-body.
  bool changed = true;
  while (changed) {
    changed = false;
    ++result.rounds;
    for (size_t i = 0; i < tgds.size(); ++i) {
      const Tgd& tgd = tgds.tgds[i];
      for (const Term& x : tgd.BodyVariables()) {
        if (result.marked[i].count(x) > 0) continue;
        bool mark = false;
        for (const Atom& alpha : tgd.head) {
          std::vector<int> pos = positions_of(alpha, x);
          if (pos.empty()) continue;  // handled by base step
          for (size_t j = 0; j < tgds.size() && !mark; ++j) {
            for (const Atom& beta : tgds.tgds[j].body) {
              if (beta.predicate != alpha.predicate) continue;
              bool all_marked = true;
              for (int p : pos) {
                const Term& t = beta.args[static_cast<size_t>(p)];
                // A constant at a propagation position blocks marking:
                // constants trivially "stick" (this reading is forced by
                // Prop. 35, which relies on lossless tgds with constants
                // being sticky).
                if (!t.IsVariable() || result.marked[j].count(t) == 0) {
                  all_marked = false;
                  break;
                }
              }
              if (all_marked) {
                mark = true;
                break;
              }
            }
          }
          if (mark) break;
        }
        if (mark) {
          result.marked[i].insert(x);
          changed = true;
        }
      }
    }
  }
  return result;
}

bool IsSticky(const TgdSet& tgds) {
  StickyMarking marking = ComputeStickyMarking(tgds);
  for (size_t i = 0; i < tgds.size(); ++i) {
    const Tgd& tgd = tgds.tgds[i];
    for (const Term& x : marking.marked[i]) {
      int occurrences = 0;
      for (const Atom& b : tgd.body) {
        for (const Term& t : b.args) {
          if (t == x) ++occurrences;
        }
      }
      if (occurrences > 1) return false;
    }
  }
  return true;
}

bool IsFrontierGuarded(const TgdSet& tgds) {
  for (const Tgd& tgd : tgds.tgds) {
    if (tgd.body.empty()) continue;
    std::vector<Term> frontier = tgd.FrontierVariables();
    bool has_guard = false;
    for (const Atom& a : tgd.body) {
      bool guards_all = true;
      for (const Term& v : frontier) {
        if (std::find(a.args.begin(), a.args.end(), v) == a.args.end()) {
          guards_all = false;
          break;
        }
      }
      if (guards_all) {
        has_guard = true;
        break;
      }
    }
    if (!has_guard) return false;
  }
  return true;
}

std::optional<Stratification> Stratify(const TgdSet& tgds) {
  if (!IsNonRecursive(tgds)) return std::nullopt;
  auto graph = PredicateGraph(tgds);
  // Longest-path layering: µ(p) = 1 + max over predecessors.
  Stratification strat;
  std::map<Predicate, int> depth;
  std::function<int(Predicate)> compute = [&](Predicate p) -> int {
    auto it = depth.find(p);
    if (it != depth.end()) return it->second;
    depth[p] = 0;  // provisional; graph is acyclic so this is never read
    int d = 0;
    for (const auto& [from, succs] : graph) {
      if (succs.count(p) > 0) d = std::max(d, compute(from) + 1);
    }
    depth[p] = d;
    return d;
  };
  int max_depth = 0;
  for (const auto& [p, _] : graph) {
    max_depth = std::max(max_depth, compute(p));
  }
  strat.stratum_of = depth;
  strat.num_strata = max_depth + 1;
  strat.tgd_stratum.resize(tgds.size(), 0);
  for (size_t i = 0; i < tgds.size(); ++i) {
    int s = 0;
    for (const Atom& h : tgds.tgds[i].head) {
      s = std::max(s, depth[h.predicate]);
    }
    strat.tgd_stratum[i] = s;
  }
  return strat;
}

std::set<std::pair<Predicate, int>> AffectedPositions(const TgdSet& tgds) {
  using Position = std::pair<Predicate, int>;
  std::set<Position> affected;
  // Base: positions of existential variables in heads.
  for (const Tgd& tgd : tgds.tgds) {
    std::vector<Term> ex = tgd.ExistentialVariables();
    for (const Atom& h : tgd.head) {
      for (size_t i = 0; i < h.args.size(); ++i) {
        if (std::find(ex.begin(), ex.end(), h.args[i]) != ex.end()) {
          affected.insert({h.predicate, static_cast<int>(i)});
        }
      }
    }
  }
  // Induction: a frontier variable occurring in the body only at affected
  // positions propagates affectedness to its head positions.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Tgd& tgd : tgds.tgds) {
      for (const Term& x : tgd.FrontierVariables()) {
        bool only_affected = true;
        bool occurs_in_body = false;
        for (const Atom& b : tgd.body) {
          for (size_t i = 0; i < b.args.size(); ++i) {
            if (b.args[i] == x) {
              occurs_in_body = true;
              if (affected.count({b.predicate, static_cast<int>(i)}) == 0) {
                only_affected = false;
              }
            }
          }
        }
        if (!occurs_in_body || !only_affected) continue;
        for (const Atom& h : tgd.head) {
          for (size_t i = 0; i < h.args.size(); ++i) {
            if (h.args[i] == x &&
                affected.insert({h.predicate, static_cast<int>(i)}).second) {
              changed = true;
            }
          }
        }
      }
    }
  }
  return affected;
}

bool IsWeaklyGuarded(const TgdSet& tgds) {
  auto affected = AffectedPositions(tgds);
  for (const Tgd& tgd : tgds.tgds) {
    if (tgd.body.empty()) continue;
    // Variables occurring only at affected body positions must be guarded.
    std::set<Term> must_guard;
    for (const Term& x : tgd.BodyVariables()) {
      bool only_affected = true;
      for (const Atom& b : tgd.body) {
        for (size_t i = 0; i < b.args.size(); ++i) {
          if (b.args[i] == x &&
              affected.count({b.predicate, static_cast<int>(i)}) == 0) {
            only_affected = false;
          }
        }
      }
      if (only_affected) must_guard.insert(x);
    }
    if (must_guard.empty()) continue;
    bool has_guard = false;
    for (const Atom& a : tgd.body) {
      bool guards_all = true;
      for (const Term& v : must_guard) {
        if (std::find(a.args.begin(), a.args.end(), v) == a.args.end()) {
          guards_all = false;
          break;
        }
      }
      if (guards_all) {
        has_guard = true;
        break;
      }
    }
    if (!has_guard) return false;
  }
  return true;
}

bool IsWeaklyAcyclic(const TgdSet& tgds) {
  using Position = std::pair<Predicate, int>;
  // Edges: regular and special, per Fagin et al. (cited as [35]).
  std::map<Position, std::set<Position>> regular, special;
  std::set<Position> nodes;
  for (const Tgd& tgd : tgds.tgds) {
    std::vector<Term> ex = tgd.ExistentialVariables();
    for (const Atom& b : tgd.body) {
      for (size_t i = 0; i < b.args.size(); ++i) {
        nodes.insert({b.predicate, static_cast<int>(i)});
        const Term& x = b.args[i];
        if (!x.IsVariable()) continue;
        Position from{b.predicate, static_cast<int>(i)};
        for (const Atom& h : tgd.head) {
          for (size_t j = 0; j < h.args.size(); ++j) {
            Position to{h.predicate, static_cast<int>(j)};
            nodes.insert(to);
            if (h.args[j] == x) regular[from].insert(to);
            if (std::find(ex.begin(), ex.end(), h.args[j]) != ex.end()) {
              special[from].insert(to);
            }
          }
        }
      }
    }
  }
  // Weakly acyclic iff no cycle containing a special edge: check for each
  // special edge (u,v) whether u is reachable from v via regular∪special.
  auto reachable = [&](const Position& from, const Position& to) {
    std::set<Position> seen{from};
    std::vector<Position> stack{from};
    while (!stack.empty()) {
      Position p = stack.back();
      stack.pop_back();
      if (p == to) return true;
      for (const auto* edges : {&regular, &special}) {
        auto it = edges->find(p);
        if (it == edges->end()) continue;
        for (const Position& succ : it->second) {
          if (seen.insert(succ).second) stack.push_back(succ);
        }
      }
    }
    return false;
  };
  for (const auto& [from, tos] : special) {
    for (const Position& to : tos) {
      if (reachable(to, from)) return false;
    }
  }
  return true;
}

bool IsWeaklySticky(const TgdSet& tgds) {
  auto affected = AffectedPositions(tgds);
  StickyMarking marking = ComputeStickyMarking(tgds);
  for (size_t i = 0; i < tgds.size(); ++i) {
    const Tgd& tgd = tgds.tgds[i];
    for (const Term& x : tgd.BodyVariables()) {
      int occurrences = 0;
      bool at_unaffected = false;
      for (const Atom& b : tgd.body) {
        for (size_t j = 0; j < b.args.size(); ++j) {
          if (b.args[j] == x) {
            ++occurrences;
            if (affected.count({b.predicate, static_cast<int>(j)}) == 0) {
              at_unaffected = true;
            }
          }
        }
      }
      if (occurrences > 1 && marking.marked[i].count(x) > 0 &&
          !at_unaffected) {
        return false;
      }
    }
  }
  return true;
}

std::string ClassificationReport::ToString() const {
  std::vector<std::string> tags;
  if (empty) tags.push_back("empty");
  if (linear) tags.push_back("linear");
  if (guarded) tags.push_back("guarded");
  if (frontier_guarded && !guarded) tags.push_back("frontier-guarded");
  if (full) tags.push_back("full");
  if (non_recursive) tags.push_back("non-recursive");
  if (sticky) tags.push_back("sticky");
  if (weakly_guarded) tags.push_back("weakly-guarded");
  if (weakly_acyclic) tags.push_back("weakly-acyclic");
  if (weakly_sticky) tags.push_back("weakly-sticky");
  if (tags.empty()) tags.push_back("general");
  return JoinStrings(tags, ", ");
}

ClassificationReport Classify(const TgdSet& tgds) {
  ClassificationReport report;
  report.empty = tgds.empty();
  report.linear = IsLinear(tgds);
  report.guarded = IsGuarded(tgds);
  report.frontier_guarded = IsFrontierGuarded(tgds);
  report.full = IsFull(tgds);
  report.non_recursive = IsNonRecursive(tgds);
  report.sticky = IsSticky(tgds);
  report.weakly_guarded = IsWeaklyGuarded(tgds);
  report.weakly_acyclic = IsWeaklyAcyclic(tgds);
  report.weakly_sticky = IsWeaklySticky(tgds);
  return report;
}

TgdClass PrimaryClass(const TgdSet& tgds) {
  if (tgds.empty()) return TgdClass::kEmpty;
  if (IsLinear(tgds)) return TgdClass::kLinear;
  if (IsNonRecursive(tgds)) return TgdClass::kNonRecursive;
  if (IsSticky(tgds)) return TgdClass::kSticky;
  if (IsGuarded(tgds)) return TgdClass::kGuarded;
  if (IsFull(tgds)) return TgdClass::kFull;
  return TgdClass::kGeneral;
}

TgdProfile GetTgdProfile(const TgdSet& tgds) {
  return TgdProfile{PrimaryClass(tgds), IsFull(tgds), IsNonRecursive(tgds)};
}

bool IsUcqRewritableClass(TgdClass c) {
  switch (c) {
    case TgdClass::kEmpty:
    case TgdClass::kLinear:
    case TgdClass::kNonRecursive:
    case TgdClass::kSticky:
      return true;
    default:
      return false;
  }
}

}  // namespace omqc
