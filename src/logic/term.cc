#include "logic/term.h"

#include <deque>
#include <mutex>
#include <unordered_map>

#include "base/string_util.h"

namespace omqc {
namespace {

/// One interning table per term sort that carries a name. Synchronized so
/// server workers running concurrent requests can intern terms; `names`
/// is a deque, whose element references stay stable across growth, so
/// `Name()` can hand out references without copying.
struct Interner {
  std::mutex mu;
  std::unordered_map<std::string, int32_t> by_name;
  std::deque<std::string> names;

  int32_t Intern(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = by_name.find(name);
    if (it != by_name.end()) return it->second;
    int32_t id = static_cast<int32_t>(names.size());
    names.push_back(name);
    by_name.emplace(name, id);
    return id;
  }

  const std::string& Name(int32_t id) {
    std::lock_guard<std::mutex> lock(mu);
    return names[static_cast<size_t>(id)];
  }
};

Interner& ConstantInterner() {
  static Interner* interner = new Interner();
  return *interner;
}

Interner& VariableInterner() {
  static Interner* interner = new Interner();
  return *interner;
}

}  // namespace

Term Term::Constant(const std::string& name) {
  return Term(TermKind::kConstant, ConstantInterner().Intern(name));
}

Term Term::Variable(const std::string& name) {
  return Term(TermKind::kVariable, VariableInterner().Intern(name));
}

Term Term::NullWithId(int32_t id) { return Term(TermKind::kNull, id); }

std::string Term::ToString() const {
  switch (kind_) {
    case TermKind::kConstant:
      if (id_ < 0) return "<invalid>";
      return ConstantInterner().Name(id_);
    case TermKind::kNull:
      return StrCat("_:n", id_);
    case TermKind::kVariable:
      return VariableInterner().Name(id_);
  }
  return "<invalid>";
}

}  // namespace omqc
