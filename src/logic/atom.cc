#include "logic/atom.h"

#include <deque>
#include <mutex>
#include <unordered_map>

#include "base/string_util.h"

namespace omqc {
namespace {

struct PredicateInfo {
  std::string name;
  int arity;
};

/// Synchronized for concurrent requests on the server's worker pool;
/// `infos` is a deque so references handed out by Info() survive growth.
struct PredicateInterner {
  std::mutex mu;
  std::unordered_map<std::string, int32_t> by_key;
  std::deque<PredicateInfo> infos;

  int32_t Intern(const std::string& name, int arity) {
    std::string key = StrCat(name, "/", arity);
    std::lock_guard<std::mutex> lock(mu);
    auto it = by_key.find(key);
    if (it != by_key.end()) return it->second;
    int32_t id = static_cast<int32_t>(infos.size());
    infos.push_back({name, arity});
    by_key.emplace(std::move(key), id);
    return id;
  }

  const PredicateInfo& Info(int32_t id) {
    std::lock_guard<std::mutex> lock(mu);
    return infos[static_cast<size_t>(id)];
  }
};

PredicateInterner& Interner() {
  static PredicateInterner* interner = new PredicateInterner();
  return *interner;
}

}  // namespace

Predicate Predicate::Get(const std::string& name, int arity) {
  return Predicate(Interner().Intern(name, arity));
}

const std::string& Predicate::name() const {
  return Interner().Info(id_).name;
}

int Predicate::arity() const { return Interner().Info(id_).arity; }

std::string Predicate::ToString() const {
  if (!valid()) return "<invalid>/0";
  return StrCat(name(), "/", arity());
}

Atom Atom::Make(const std::string& name, std::vector<Term> args) {
  Predicate p = Predicate::Get(name, static_cast<int>(args.size()));
  return Atom(p, std::move(args));
}

bool Atom::IsFact() const {
  for (const Term& t : args) {
    if (!t.IsConstant()) return false;
  }
  return true;
}

std::vector<Term> Atom::Variables() const {
  std::vector<Term> out;
  for (const Term& t : args) {
    if (t.IsVariable() &&
        std::find(out.begin(), out.end(), t) == out.end()) {
      out.push_back(t);
    }
  }
  return out;
}

std::string Atom::ToString() const {
  std::string out = predicate.valid() ? predicate.name() : "<invalid>";
  out += "(";
  out += JoinMapped(args, ",", [](const Term& t) { return t.ToString(); });
  out += ")";
  return out;
}

int Schema::MaxArity() const {
  int max_arity = 0;
  for (const Predicate& p : preds_) {
    if (p.arity() > max_arity) max_arity = p.arity();
  }
  return max_arity;
}

Schema Schema::Union(const Schema& other) const {
  Schema out = *this;
  for (const Predicate& p : other.preds_) out.Add(p);
  return out;
}

std::string Schema::ToString() const {
  return StrCat(
      "{",
      JoinMapped(preds_, ", ", [](const Predicate& p) { return p.ToString(); }),
      "}");
}

}  // namespace omqc
