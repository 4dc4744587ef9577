#include "logic/cq.h"

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "base/string_util.h"

namespace omqc {

std::vector<Term> ConjunctiveQuery::Variables() const {
  std::vector<Term> out;
  auto push = [&out](const Term& t) {
    if (t.IsVariable() && std::find(out.begin(), out.end(), t) == out.end()) {
      out.push_back(t);
    }
  };
  for (const Term& t : answer_vars) push(t);
  for (const Atom& a : body) {
    for (const Term& t : a.args) push(t);
  }
  return out;
}

std::vector<Term> ConjunctiveQuery::ExistentialVariables() const {
  std::set<Term> free(answer_vars.begin(), answer_vars.end());
  std::vector<Term> out;
  for (const Atom& a : body) {
    for (const Term& t : a.args) {
      if (t.IsVariable() && free.count(t) == 0 &&
          std::find(out.begin(), out.end(), t) == out.end()) {
        out.push_back(t);
      }
    }
  }
  return out;
}

std::set<Term> ConjunctiveQuery::SharedVariables() const {
  std::set<Term> shared(answer_vars.begin(), answer_vars.end());
  std::map<Term, int> occurrences;
  for (const Atom& a : body) {
    for (const Term& t : a.args) {
      if (t.IsVariable()) ++occurrences[t];
    }
  }
  for (const auto& [t, count] : occurrences) {
    if (count > 1) shared.insert(t);
  }
  // Only variables count as shared; drop constants from the answer tuple.
  for (auto it = shared.begin(); it != shared.end();) {
    it = it->IsVariable() ? std::next(it) : shared.erase(it);
  }
  return shared;
}

std::set<Term> ConjunctiveQuery::AllTerms() const {
  std::set<Term> out;
  for (const Atom& a : body) {
    for (const Term& t : a.args) out.insert(t);
  }
  for (const Term& t : answer_vars) out.insert(t);
  return out;
}

std::set<Term> ConjunctiveQuery::Constants() const {
  std::set<Term> out;
  for (const Term& t : AllTerms()) {
    if (t.IsConstant()) out.insert(t);
  }
  return out;
}

ConjunctiveQuery ConjunctiveQuery::Substituted(const Substitution& s) const {
  return ConjunctiveQuery(s.Apply(answer_vars), s.Apply(body));
}

ConjunctiveQuery ConjunctiveQuery::RenamedApart(int index) const {
  Substitution rename;
  for (const Term& v : Variables()) {
    rename.Bind(v,
                Term::Variable(v.ToString() + "#" + std::to_string(index)));
  }
  return Substituted(rename);
}

std::vector<ConjunctiveQuery> ConjunctiveQuery::Components() const {
  // Union-find over terms occurring in non-0-ary atoms.
  std::map<Term, Term> parent;
  std::function<Term(Term)> find = [&](Term t) {
    while (parent.at(t) != t) {
      parent[t] = parent.at(parent.at(t));
      t = parent.at(t);
    }
    return t;
  };
  for (const Atom& a : body) {
    for (const Term& t : a.args) parent.emplace(t, t);
  }
  for (const Atom& a : body) {
    if (a.args.empty()) continue;
    Term first = find(a.args.front());
    for (const Term& t : a.args) parent[find(t)] = first;
  }
  std::map<Term, std::vector<Atom>> groups;
  for (const Atom& a : body) {
    if (a.args.empty()) continue;
    groups[find(a.args.front())].push_back(a);
  }
  std::vector<ConjunctiveQuery> out;
  for (auto& [root, atoms] : groups) {
    std::set<Term> terms;
    for (const Atom& a : atoms) {
      for (const Term& t : a.args) terms.insert(t);
    }
    std::vector<Term> answers;
    for (const Term& v : answer_vars) {
      if (terms.count(v) > 0 || v.IsConstant()) answers.push_back(v);
    }
    out.emplace_back(std::move(answers), std::move(atoms));
  }
  return out;
}

std::string ConjunctiveQuery::ToString() const {
  std::string head = StrCat(
      "q(",
      JoinMapped(answer_vars, ",", [](const Term& t) { return t.ToString(); }),
      ")");
  if (body.empty()) return head + " :- true";
  return StrCat(head, " :- ",
                JoinMapped(body, ", ",
                           [](const Atom& a) { return a.ToString(); }));
}

Substitution FreezingOf(const ConjunctiveQuery& q) {
  Substitution freezing;
  for (const Term& v : q.Variables()) {
    freezing.Bind(v, Term::Constant("@f_" + v.ToString()));
  }
  return freezing;
}

FrozenQuery Freeze(const ConjunctiveQuery& q) {
  Substitution freezing = FreezingOf(q);
  FrozenQuery out;
  for (const Atom& a : q.body) out.database.Add(freezing.Apply(a));
  out.answer_tuple = freezing.Apply(q.answer_vars);
  return out;
}

size_t UnionOfCQs::MaxDisjunctSize() const {
  size_t max_size = 0;
  for (const ConjunctiveQuery& q : disjuncts) {
    max_size = std::max(max_size, q.size());
  }
  return max_size;
}

std::string UnionOfCQs::ToString() const {
  return JoinMapped(disjuncts, "\n", [](const ConjunctiveQuery& q) {
    return q.ToString();
  });
}

Status ValidateCQ(const ConjunctiveQuery& q) {
  std::set<Term> body_vars;
  for (const Atom& a : q.body) {
    if (static_cast<int>(a.args.size()) != a.predicate.arity()) {
      return Status::InvalidArgument(
          StrCat("atom ", a.ToString(), " does not match arity of ",
                 a.predicate.ToString()));
    }
    for (const Term& t : a.args) {
      if (t.IsNull()) {
        return Status::InvalidArgument(
            StrCat("query atom ", a.ToString(), " contains a null"));
      }
      if (t.IsVariable()) body_vars.insert(t);
    }
  }
  for (const Term& v : q.answer_vars) {
    if (v.IsVariable() && body_vars.count(v) == 0) {
      return Status::InvalidArgument(
          StrCat("answer variable ", v.ToString(), " not bound in body"));
    }
  }
  return Status::OK();
}

namespace {

/// Backtracking search for a variable bijection turning `a` into `b`.
bool IsoSearch(const std::vector<Atom>& body_a, size_t index,
               const std::vector<Atom>& body_b,
               std::unordered_map<Term, Term, TermHash>& fwd,
               std::unordered_map<Term, Term, TermHash>& bwd) {
  if (index == body_a.size()) return true;
  const Atom& atom = body_a[index];
  for (const Atom& candidate : body_b) {
    if (candidate.predicate != atom.predicate) continue;
    // Try to extend the bijection so that atom maps onto candidate.
    std::vector<std::pair<Term, Term>> added;
    bool feasible = true;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Term& from = atom.args[i];
      const Term& to = candidate.args[i];
      if (from.IsConstant() || to.IsConstant()) {
        if (from != to) {
          feasible = false;
          break;
        }
        continue;
      }
      auto fit = fwd.find(from);
      auto bit = bwd.find(to);
      if (fit != fwd.end() || bit != bwd.end()) {
        if (fit == fwd.end() || bit == bwd.end() || fit->second != to ||
            bit->second != from) {
          feasible = false;
          break;
        }
        continue;
      }
      fwd.emplace(from, to);
      bwd.emplace(to, from);
      added.emplace_back(from, to);
    }
    if (feasible && IsoSearch(body_a, index + 1, body_b, fwd, bwd)) {
      return true;
    }
    for (const auto& [from, to] : added) {
      fwd.erase(from);
      bwd.erase(to);
    }
  }
  return false;
}

std::vector<Atom> DedupedBody(const std::vector<Atom>& body) {
  std::vector<Atom> out;
  std::unordered_set<Atom, AtomHash> seen;
  for (const Atom& a : body) {
    if (seen.insert(a).second) out.push_back(a);
  }
  return out;
}

}  // namespace

bool IsomorphicCQs(const ConjunctiveQuery& a, const ConjunctiveQuery& b) {
  if (a.answer_vars.size() != b.answer_vars.size()) return false;
  std::vector<Atom> body_a = DedupedBody(a.body);
  std::vector<Atom> body_b = DedupedBody(b.body);
  if (body_a.size() != body_b.size()) return false;

  std::unordered_map<Term, Term, TermHash> fwd, bwd;
  // Pin the answer tuple correspondence first.
  for (size_t i = 0; i < a.answer_vars.size(); ++i) {
    const Term& from = a.answer_vars[i];
    const Term& to = b.answer_vars[i];
    if (from.IsConstant() || to.IsConstant()) {
      if (from != to) return false;
      continue;
    }
    auto fit = fwd.find(from);
    auto bit = bwd.find(to);
    if (fit != fwd.end() || bit != bwd.end()) {
      if (fit == fwd.end() || bit == bwd.end() || fit->second != to ||
          bit->second != from) {
        return false;
      }
      continue;
    }
    fwd.emplace(from, to);
    bwd.emplace(to, from);
  }
  if (!IsoSearch(body_a, 0, body_b, fwd, bwd)) return false;
  // fwd is injective on variables and |body_a| == |body_b|, so the image of
  // body_a is exactly body_b; also require variable counts to match so the
  // renaming is a bijection on all variables.
  return a.Variables().size() == b.Variables().size();
}

}  // namespace omqc
