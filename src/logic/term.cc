#include "logic/term.h"

#include <atomic>
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

std::atomic<int32_t>& NullCounter() {
  static std::atomic<int32_t>* counter = new std::atomic<int32_t>(0);
  return *counter;
}

}  // namespace

Term Term::Constant(const std::string& name) {
  return Term(TermKind::kConstant, ConstantInterner().Intern(name));
}

Term Term::Variable(const std::string& name) {
  return Term(TermKind::kVariable, VariableInterner().Intern(name));
}

Term Term::FreshNull() {
  return Term(TermKind::kNull,
              NullCounter().fetch_add(1, std::memory_order_relaxed));
}

Term Term::NullWithId(int32_t id) { return Term(TermKind::kNull, id); }

void Term::ReserveNullIds(int32_t bound) {
  std::atomic<int32_t>& counter = NullCounter();
  int32_t current = counter.load(std::memory_order_relaxed);
  while (current < bound &&
         !counter.compare_exchange_weak(current, bound,
                                        std::memory_order_relaxed)) {
  }
}

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
