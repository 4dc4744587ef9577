#include "automata/pbf.h"

#include "base/string_util.h"

namespace omqc {

std::string TransitionAtom::ToString() const {
  const char* dir = move == Move::kUp ? "-1" : (move == Move::kStay ? "0" : "*");
  return StrCat(universal ? "[" : "<", dir, universal ? "]" : ">", state);
}

Formula Formula::True() {
  return Formula(std::make_shared<const Node>(
      Node{Kind::kTrue, TransitionAtom{}, nullptr, nullptr}));
}

Formula Formula::False() {
  return Formula(std::make_shared<const Node>(
      Node{Kind::kFalse, TransitionAtom{}, nullptr, nullptr}));
}

Formula Formula::Atom(TransitionAtom atom) {
  return Formula(std::make_shared<const Node>(
      Node{Kind::kAtom, atom, nullptr, nullptr}));
}

Formula Formula::And(Formula a, Formula b) {
  if (a.kind() == Kind::kFalse || b.kind() == Kind::kFalse) return False();
  if (a.kind() == Kind::kTrue) return b;
  if (b.kind() == Kind::kTrue) return a;
  return Formula(std::make_shared<const Node>(
      Node{Kind::kAnd, TransitionAtom{},
           std::make_shared<const Formula>(std::move(a)),
           std::make_shared<const Formula>(std::move(b))}));
}

Formula Formula::Or(Formula a, Formula b) {
  if (a.kind() == Kind::kTrue || b.kind() == Kind::kTrue) return True();
  if (a.kind() == Kind::kFalse) return b;
  if (b.kind() == Kind::kFalse) return a;
  return Formula(std::make_shared<const Node>(
      Node{Kind::kOr, TransitionAtom{},
           std::make_shared<const Formula>(std::move(a)),
           std::make_shared<const Formula>(std::move(b))}));
}

Formula Formula::AndAll(const std::vector<Formula>& fs) {
  Formula out = True();
  for (const Formula& f : fs) out = And(out, f);
  return out;
}

Formula Formula::OrAll(const std::vector<Formula>& fs) {
  Formula out = False();
  for (const Formula& f : fs) out = Or(out, f);
  return out;
}

bool Formula::Evaluate(
    const std::function<bool(const TransitionAtom&)>& valuation) const {
  switch (kind()) {
    case Kind::kTrue:
      return true;
    case Kind::kFalse:
      return false;
    case Kind::kAtom:
      return valuation(atom());
    case Kind::kAnd:
      return left().Evaluate(valuation) && right().Evaluate(valuation);
    case Kind::kOr:
      return left().Evaluate(valuation) || right().Evaluate(valuation);
  }
  return false;
}

Formula Formula::Dual() const {
  switch (kind()) {
    case Kind::kTrue:
      return False();
    case Kind::kFalse:
      return True();
    case Kind::kAtom: {
      TransitionAtom dual_atom = atom();
      dual_atom.universal = !dual_atom.universal;
      return Atom(dual_atom);
    }
    case Kind::kAnd:
      return Or(left().Dual(), right().Dual());
    case Kind::kOr:
      return And(left().Dual(), right().Dual());
  }
  return False();
}

void Formula::CollectAtoms(std::vector<TransitionAtom>& out) const {
  switch (kind()) {
    case Kind::kTrue:
    case Kind::kFalse:
      return;
    case Kind::kAtom:
      out.push_back(atom());
      return;
    case Kind::kAnd:
    case Kind::kOr:
      left().CollectAtoms(out);
      right().CollectAtoms(out);
      return;
  }
}

std::string Formula::ToString() const {
  switch (kind()) {
    case Kind::kTrue:
      return "true";
    case Kind::kFalse:
      return "false";
    case Kind::kAtom:
      return atom().ToString();
    case Kind::kAnd:
      return StrCat("(", left().ToString(), " & ", right().ToString(), ")");
    case Kind::kOr:
      return StrCat("(", left().ToString(), " | ", right().ToString(), ")");
  }
  return "?";
}

Formula Diamond(Move move, int state) {
  return Formula::Atom(TransitionAtom{move, /*universal=*/false, state});
}

Formula Box(Move move, int state) {
  return Formula::Atom(TransitionAtom{move, /*universal=*/true, state});
}

}  // namespace omqc
