// Positive Boolean formulas B+(X) over transition atoms (Def. 10): the
// transition-function codomain of the 2WAPAs in automata/twapa.h.

#ifndef OMQC_AUTOMATA_PBF_H_
#define OMQC_AUTOMATA_PBF_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace omqc {

/// Direction of a 2WAPA move: up to the parent, stay, or to child(ren).
enum class Move : int {
  kUp = -1,    ///< α = -1
  kStay = 0,   ///< α = 0
  kChild = 1,  ///< α = * (some child for ◇, all children for □)
};

/// A transition atom ⟨α⟩s (existential) or [α]s (universal).
struct TransitionAtom {
  Move move = Move::kStay;
  bool universal = false;  ///< true for [α]s, false for ⟨α⟩s
  int state = 0;

  std::string ToString() const;
};

/// An immutable positive Boolean formula over transition atoms.
class Formula {
 public:
  enum class Kind { kTrue, kFalse, kAnd, kOr, kAtom };

  static Formula True();
  static Formula False();
  static Formula Atom(TransitionAtom atom);
  static Formula And(Formula a, Formula b);
  static Formula Or(Formula a, Formula b);
  /// n-ary conjunction/disjunction; empty input yields True()/False().
  static Formula AndAll(const std::vector<Formula>& fs);
  static Formula OrAll(const std::vector<Formula>& fs);

  Kind kind() const { return node_->kind; }
  const TransitionAtom& atom() const { return node_->atom; }
  const Formula& left() const { return *node_->left; }
  const Formula& right() const { return *node_->right; }

  /// Evaluates the formula under a valuation of its transition atoms.
  bool Evaluate(
      const std::function<bool(const TransitionAtom&)>& valuation) const;

  /// The dual formula: swaps ∧/∨, true/false and ⟨⟩/[] (used by automaton
  /// complementation).
  Formula Dual() const;

  /// All transition atoms occurring in the formula.
  void CollectAtoms(std::vector<TransitionAtom>& out) const;

  std::string ToString() const;

 private:
  struct Node {
    Kind kind;
    TransitionAtom atom;
    std::shared_ptr<const Formula> left, right;
  };
  explicit Formula(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  std::shared_ptr<const Node> node_;
};

/// Shorthand constructors mirroring the paper's notation: ◇s = some move
/// in {-1,0,*} to state s; □s = the corresponding universal version.
Formula Diamond(Move move, int state);
Formula Box(Move move, int state);

}  // namespace omqc

#endif  // OMQC_AUTOMATA_PBF_H_
