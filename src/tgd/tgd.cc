#include "tgd/tgd.h"

#include <algorithm>
#include <string>

#include "base/string_util.h"

namespace omqc {
namespace {

void CollectVariables(const std::vector<Atom>& atoms,
                      std::vector<Term>& out) {
  for (const Atom& a : atoms) {
    for (const Term& t : a.args) {
      if (t.IsVariable() &&
          std::find(out.begin(), out.end(), t) == out.end()) {
        out.push_back(t);
      }
    }
  }
}

}  // namespace

std::vector<Term> Tgd::BodyVariables() const {
  std::vector<Term> out;
  CollectVariables(body, out);
  return out;
}

std::vector<Term> Tgd::HeadVariables() const {
  std::vector<Term> out;
  CollectVariables(head, out);
  return out;
}

std::vector<Term> Tgd::FrontierVariables() const {
  std::vector<Term> body_vars = BodyVariables();
  std::vector<Term> out;
  for (const Term& v : HeadVariables()) {
    if (std::find(body_vars.begin(), body_vars.end(), v) != body_vars.end()) {
      out.push_back(v);
    }
  }
  return out;
}

std::vector<Term> Tgd::ExistentialVariables() const {
  std::vector<Term> body_vars = BodyVariables();
  std::vector<Term> out;
  for (const Term& v : HeadVariables()) {
    if (std::find(body_vars.begin(), body_vars.end(), v) == body_vars.end()) {
      out.push_back(v);
    }
  }
  return out;
}

std::set<Term> Tgd::Constants() const {
  std::set<Term> out;
  for (const std::vector<Atom>* atoms : {&body, &head}) {
    for (const Atom& a : *atoms) {
      for (const Term& t : a.args) {
        if (t.IsConstant()) out.insert(t);
      }
    }
  }
  return out;
}

Tgd Tgd::RenamedApart(int index) const {
  Substitution rename;
  std::vector<Term> vars = BodyVariables();
  CollectVariables(head, vars);
  for (const Term& v : vars) {
    rename.Bind(v,
                Term::Variable(v.ToString() + "#" + std::to_string(index)));
  }
  return Tgd(rename.Apply(body), rename.Apply(head));
}

std::string Tgd::ToString() const {
  auto atoms_to_string = [](const std::vector<Atom>& atoms) {
    return JoinMapped(atoms, ", ",
                      [](const Atom& a) { return a.ToString(); });
  };
  std::string body_str = body.empty() ? "true" : atoms_to_string(body);
  return StrCat(body_str, " -> ", atoms_to_string(head));
}

Schema TgdSet::SchemaOf() const {
  Schema out;
  for (const Tgd& tgd : tgds) {
    for (const std::vector<Atom>* atoms : {&tgd.body, &tgd.head}) {
      for (const Atom& a : *atoms) out.Add(a.predicate);
    }
  }
  return out;
}

Schema TgdSet::HeadPredicates() const {
  Schema out;
  for (const Tgd& tgd : tgds) {
    for (const Atom& a : tgd.head) out.Add(a.predicate);
  }
  return out;
}

std::set<Term> TgdSet::Constants() const {
  std::set<Term> out;
  for (const Tgd& tgd : tgds) {
    std::set<Term> constants = tgd.Constants();
    out.insert(constants.begin(), constants.end());
  }
  return out;
}

size_t TgdSet::MaxBodySize() const {
  size_t max_size = 0;
  for (const Tgd& tgd : tgds) {
    max_size = std::max(max_size, tgd.body.size());
  }
  return max_size;
}

size_t TgdSet::SymbolCount() const {
  size_t count = 0;
  for (const Tgd& tgd : tgds) {
    for (const std::vector<Atom>* atoms : {&tgd.body, &tgd.head}) {
      for (const Atom& a : *atoms) count += 1 + a.args.size();
    }
  }
  return count;
}

std::string TgdSet::ToString() const {
  return JoinMapped(tgds, "\n", [](const Tgd& t) { return t.ToString(); });
}

Status ValidateTgd(const Tgd& tgd) {
  if (tgd.head.empty()) {
    return Status::InvalidArgument("tgd has an empty head: " +
                                   tgd.ToString());
  }
  for (const std::vector<Atom>* atoms : {&tgd.body, &tgd.head}) {
    for (const Atom& a : *atoms) {
      if (static_cast<int>(a.args.size()) != a.predicate.arity()) {
        return Status::InvalidArgument(
            StrCat("atom ", a.ToString(), " does not match arity of ",
                   a.predicate.ToString()));
      }
      for (const Term& t : a.args) {
        if (t.IsNull()) {
          return Status::InvalidArgument(
              StrCat("tgd contains a null: ", tgd.ToString()));
        }
      }
    }
  }
  return Status::OK();
}

Status ValidateTgdSet(const TgdSet& tgds) {
  for (const Tgd& tgd : tgds.tgds) {
    OMQC_RETURN_IF_ERROR(ValidateTgd(tgd));
  }
  return Status::OK();
}

TgdSet SingleHeadAtoms(const TgdSet& tgds, const std::string& aux_prefix) {
  TgdSet out;
  int aux_counter = 0;
  for (const Tgd& tgd : tgds.tgds) {
    if (tgd.head.size() <= 1) {
      out.tgds.push_back(tgd);
      continue;
    }
    std::vector<Term> existentials = tgd.ExistentialVariables();
    if (existentials.empty()) {
      // Without existentials, a conjunction head splits losslessly.
      for (const Atom& h : tgd.head) {
        out.tgds.emplace_back(tgd.body, std::vector<Atom>{h});
      }
      continue;
    }
    // Route the frontier and existentials through one auxiliary atom.
    std::vector<Term> aux_args = tgd.FrontierVariables();
    for (const Term& z : existentials) aux_args.push_back(z);
    Atom aux = Atom::Make(
        StrCat(aux_prefix, "Head", aux_counter++),
        aux_args);
    out.tgds.emplace_back(tgd.body, std::vector<Atom>{aux});
    for (const Atom& h : tgd.head) {
      out.tgds.emplace_back(std::vector<Atom>{aux}, std::vector<Atom>{h});
    }
  }
  return out;
}

TgdSet NormalizeHeads(const TgdSet& tgds, const std::string& aux_prefix) {
  TgdSet single = SingleHeadAtoms(tgds, aux_prefix);
  TgdSet out;
  int aux_counter = 0;
  for (const Tgd& tgd : single.tgds) {
    std::vector<Term> existentials = tgd.ExistentialVariables();
    bool single_occurrence = true;
    if (existentials.size() == 1) {
      int occurrences = 0;
      for (const Atom& h : tgd.head) {
        for (const Term& t : h.args) {
          if (t == existentials.front()) ++occurrences;
        }
      }
      single_occurrence = occurrences == 1;
    }
    if (existentials.size() <= 1 && single_occurrence) {
      out.tgds.push_back(tgd);
      continue;
    }
    // Chain: introduce existentials one by one through auxiliary atoms,
    // each occurring exactly once.
    std::vector<Term> carried = tgd.FrontierVariables();
    std::vector<Atom> prev_body = tgd.body;
    for (const Term& z : existentials) {
      std::vector<Term> aux_args = carried;
      aux_args.push_back(z);
      Atom aux = Atom::Make(StrCat(aux_prefix, "Ex", aux_counter++),
                            aux_args);
      out.tgds.emplace_back(prev_body, std::vector<Atom>{aux});
      prev_body = {aux};
      carried = aux_args;
    }
    out.tgds.emplace_back(prev_body, tgd.head);
  }
  return out;
}

}  // namespace omqc
