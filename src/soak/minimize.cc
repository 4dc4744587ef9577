#include "soak/minimize.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "base/string_util.h"

namespace omqc {
namespace {

std::vector<Atom> FactList(const Program& program) {
  std::vector<Atom> facts;
  for (AtomId id = 0; id < program.facts.size(); ++id) {
    facts.push_back(program.facts.MaterializeAtom(id));
  }
  return facts;
}

/// Rebuilds `base` with `facts` as its database (the Instance API has no
/// removal; delta debugging rebuilds from the survivor list).
Program WithFacts(const Program& base, const std::vector<Atom>& facts) {
  Program out;
  out.tgds = base.tgds;
  out.queries = base.queries;
  for (const Atom& atom : facts) out.facts.Add(atom);
  return out;
}

/// May body atom `k` of `query` be deleted? Every answer variable must
/// stay bound by a remaining atom, and at least one atom must remain.
bool DeletableQueryAtom(const ConjunctiveQuery& query, size_t k) {
  if (query.body.size() <= 1) return false;
  for (const Term& var : query.answer_vars) {
    if (!var.IsVariable()) continue;
    bool bound = false;
    for (size_t j = 0; j < query.body.size() && !bound; ++j) {
      if (j == k) continue;
      const auto& args = query.body[j].args;
      bound = std::find(args.begin(), args.end(), var) != args.end();
    }
    if (!bound) return false;
  }
  return true;
}

size_t QueryAtomCount(const Program& program) {
  size_t n = 0;
  for (const NamedQuery& q : program.queries) n += q.query.body.size();
  return n;
}

}  // namespace

Program MinimizeProgram(const Program& start, const ReproPredicate& persists,
                        MinimizeStats* stats) {
  MinimizeStats local;
  MinimizeStats& s = stats != nullptr ? *stats : local;
  s.initial_tgds = start.tgds.tgds.size();
  s.initial_facts = start.facts.size();
  s.initial_query_atoms = QueryAtomCount(start);

  Program current = WithFacts(start, FactList(start));
  ++s.probes;
  if (!persists(current)) {
    // Nothing to chase — hand the caller back its input.
    s.final_tgds = s.initial_tgds;
    s.final_facts = s.initial_facts;
    s.final_query_atoms = s.initial_query_atoms;
    return current;
  }

  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    ++s.rounds;

    // Tgds, back to front so the indices of untried rules stay stable.
    for (size_t i = current.tgds.tgds.size(); i-- > 0;) {
      Program candidate = current;
      candidate.tgds.tgds.erase(candidate.tgds.tgds.begin() +
                                static_cast<ptrdiff_t>(i));
      ++s.probes;
      if (persists(candidate)) {
        current = std::move(candidate);
        shrunk = true;
      }
    }

    // Facts.
    std::vector<Atom> facts = FactList(current);
    for (size_t i = facts.size(); i-- > 0;) {
      std::vector<Atom> fewer = facts;
      fewer.erase(fewer.begin() + static_cast<ptrdiff_t>(i));
      Program candidate = WithFacts(current, fewer);
      ++s.probes;
      if (persists(candidate)) {
        current = std::move(candidate);
        facts = std::move(fewer);
        shrunk = true;
      }
    }

    // Query body atoms (disjunct atoms), keeping every query well-formed.
    for (size_t qi = 0; qi < current.queries.size(); ++qi) {
      for (size_t k = current.queries[qi].query.body.size(); k-- > 0;) {
        if (!DeletableQueryAtom(current.queries[qi].query, k)) continue;
        Program candidate = current;
        auto& body = candidate.queries[qi].query.body;
        body.erase(body.begin() + static_cast<ptrdiff_t>(k));
        ++s.probes;
        if (persists(candidate)) {
          current = std::move(candidate);
          shrunk = true;
        }
      }
    }
  }

  s.final_tgds = current.tgds.tgds.size();
  s.final_facts = current.facts.size();
  s.final_query_atoms = QueryAtomCount(current);
  return current;
}

std::string RenderRepro(const Program& program, const std::string& header) {
  std::string out;
  size_t start = 0;
  while (start <= header.size() && !header.empty()) {
    size_t eol = header.find('\n', start);
    std::string line = header.substr(
        start, eol == std::string::npos ? std::string::npos : eol - start);
    out += StrCat("% ", line, "\n");
    if (eol == std::string::npos) break;
    start = eol + 1;
  }
  out += SerializeProgram(program);
  return out;
}

}  // namespace omqc
