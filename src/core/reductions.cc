#include "core/reductions.h"

#include <map>

#include "base/string_util.h"

namespace omqc {
namespace {

/// Renames every predicate of `atom` via `rename` (same arity).
Atom RenamePredicate(const Atom& atom,
                     const std::map<Predicate, Predicate>& rename) {
  auto it = rename.find(atom.predicate);
  if (it == rename.end()) return atom;
  return Atom(it->second, atom.args);
}

std::vector<Atom> RenamePredicates(
    const std::vector<Atom>& atoms,
    const std::map<Predicate, Predicate>& rename) {
  std::vector<Atom> out;
  out.reserve(atoms.size());
  for (const Atom& a : atoms) out.push_back(RenamePredicate(a, rename));
  return out;
}

/// Appends `annotation` as an extra final argument, retargeting the atom to
/// the (arity+1) annotated predicate with the given suffix.
Atom Annotate(const Atom& atom, const Term& annotation,
              const std::string& suffix) {
  std::vector<Term> args = atom.args;
  args.push_back(annotation);
  return Atom::Make(atom.predicate.name() + suffix, std::move(args));
}

}  // namespace

Result<EvalToContainmentInstance> EvalToContainment(
    const Omq& omq, const Database& database,
    const std::vector<Term>& tuple) {
  OMQC_RETURN_IF_ERROR(ValidateOmq(omq));
  if (tuple.size() != omq.AnswerArity()) {
    return Status::InvalidArgument("tuple arity mismatch");
  }
  Schema schema = omq.CombinedSchema().Union(database.InducedSchema());
  // q_{D,c̄}: constants of D become variables.
  Substitution to_vars;
  for (const Term& c : database.ActiveDomain()) {
    if (!c.IsConstant()) {
      return Status::InvalidArgument("database contains a non-constant");
    }
    to_vars.Bind(c, Term::Variable(StrCat("X@", c.ToString())));
  }
  ConjunctiveQuery canonical;
  for (AtomId id = 0; id < database.size(); ++id) {
    canonical.body.push_back(to_vars.Apply(database.MaterializeAtom(id)));
  }
  for (const Term& c : tuple) {
    canonical.answer_vars.push_back(to_vars.Apply(c));
  }
  EvalToContainmentInstance out;
  out.q1 = Omq{schema, TgdSet{}, std::move(canonical)};
  out.q2 = Omq{schema, omq.tgds, omq.query};
  return out;
}

Result<EvalToCoContainmentInstance> EvalToCoContainment(
    const Omq& omq, const Database& database,
    const std::vector<Term>& tuple) {
  OMQC_RETURN_IF_ERROR(ValidateOmq(omq));
  if (tuple.size() != omq.AnswerArity()) {
    return Status::InvalidArgument("tuple arity mismatch");
  }
  // Starred copies of every predicate in Σ, q and D.
  std::map<Predicate, Predicate> star;
  auto ensure_star = [&star](Predicate p) {
    if (star.count(p) == 0) {
      star.emplace(p, Predicate::Get(p.name() + "@star", p.arity()));
    }
  };
  Schema combined = omq.CombinedSchema();
  for (const Predicate& p : combined.predicates()) ensure_star(p);
  Schema db_schema = database.InducedSchema();
  for (const Predicate& p : db_schema.predicates()) {
    ensure_star(p);
  }
  TgdSet starred;
  for (const Tgd& tgd : omq.tgds.tgds) {
    starred.tgds.emplace_back(RenamePredicates(tgd.body, star),
                              RenamePredicates(tgd.head, star));
  }
  for (AtomId id = 0; id < database.size(); ++id) {
    starred.tgds.emplace_back(
        std::vector<Atom>{},
        std::vector<Atom>{RenamePredicate(database.MaterializeAtom(id), star)});
  }
  // q*_c̄: answers instantiated, predicates starred; Boolean.
  Substitution instantiate;
  for (size_t i = 0; i < tuple.size(); ++i) {
    const Term& v = omq.query.answer_vars[i];
    if (v.IsVariable()) instantiate.Bind(v, tuple[i]);
  }
  ConjunctiveQuery starred_query(
      {}, RenamePredicates(instantiate.Apply(omq.query.body), star));

  EvalToCoContainmentInstance out;
  out.q1 = Omq{omq.data_schema, std::move(starred), std::move(starred_query)};
  Predicate p_fresh = Predicate::Get("@coP", 1);
  ConjunctiveQuery rhs({}, {Atom(p_fresh, {Term::Variable("Xco")})});
  out.q2 = Omq{omq.data_schema, TgdSet{}, std::move(rhs)};
  return out;
}

Result<Omq> UcqOmqToCqOmq(const UcqOmq& omq) {
  OMQC_RETURN_IF_ERROR(ValidateTgdSet(omq.tgds));
  if (omq.query.empty()) {
    return Status::InvalidArgument("UCQ has no disjuncts");
  }
  for (const ConjunctiveQuery& d : omq.query.disjuncts) {
    OMQC_RETURN_IF_ERROR(ValidateCQ(d));
    if (!d.IsBoolean()) {
      return Status::Unsupported(
          "Prop. 9 transform is implemented for Boolean UCQs "
          "(reduce to BCQs first, as in the paper's Sec. 5)");
    }
  }
  const Term kTrue = Term::Constant("@true");
  const std::string kAnn = "@b";  // annotated predicate suffix
  Atom true_atom = Atom::Make("@True", {kTrue});
  auto or_atom = [](const Term& a, const Term& b, const Term& c) {
    return Atom::Make("@Or", {a, b, c});
  };

  TgdSet out_tgds;
  // ⊤ → True(@true): makes the gadget machinery available even on inputs
  // whose ontology contains fact tgds and the database is empty.
  out_tgds.tgds.emplace_back(std::vector<Atom>{},
                             std::vector<Atom>{true_atom});
  // Item 1: annotate data atoms as true.
  for (const Predicate& r : omq.data_schema.predicates()) {
    std::vector<Term> vars;
    for (int i = 0; i < r.arity(); ++i) {
      vars.push_back(Term::Variable(StrCat("U", i)));
    }
    Atom body(r, vars);
    out_tgds.tgds.emplace_back(
        std::vector<Atom>{body},
        std::vector<Atom>{Annotate(body, kTrue, kAnn), true_atom});
  }
  // Item 2: from True(t), generate false-annotated copies of every
  // disjunct's atoms, the Or truth table and False(f); f is existential.
  {
    Term t = Term::Variable("T@gadget");
    Term f = Term::Variable("F@gadget");
    std::vector<Atom> head;
    for (size_t i = 0; i < omq.query.disjuncts.size(); ++i) {
      ConjunctiveQuery renamed =
          omq.query.disjuncts[i].RenamedApart(static_cast<int>(i) + 1);
      for (const Atom& a : renamed.body) head.push_back(Annotate(a, f, kAnn));
    }
    head.push_back(or_atom(t, t, t));
    head.push_back(or_atom(t, f, t));
    head.push_back(or_atom(f, t, t));
    head.push_back(or_atom(f, f, f));
    head.push_back(Atom::Make("@False", {f}));
    Atom body = Atom::Make("@True", {t});
    out_tgds.tgds.emplace_back(std::vector<Atom>{body}, std::move(head));
  }
  // Item 3: annotate the original tgds with a propagated truth variable;
  // fact tgds derive atoms true in every model, so they are annotated with
  // the constant @true.
  for (const Tgd& tgd : omq.tgds.tgds) {
    Term w = Term::Variable("W@gadget");
    const Term& annotation = tgd.body.empty() ? kTrue : w;
    std::vector<Atom> body, head;
    for (const Atom& a : tgd.body) body.push_back(Annotate(a, w, kAnn));
    for (const Atom& a : tgd.head) head.push_back(Annotate(a, annotation, kAnn));
    out_tgds.tgds.emplace_back(std::move(body), std::move(head));
  }
  // Output CQ: False(y1) ∧ Λ_i (q'_i[x_i] ∧ Or(y_i, x_i, y_{i+1}))
  //            ∧ True(y_{n+1}).
  ConjunctiveQuery out_query;
  const size_t n = omq.query.disjuncts.size();
  auto y = [](size_t i) { return Term::Variable(StrCat("Y@", i)); };
  auto x = [](size_t i) { return Term::Variable(StrCat("X@", i)); };
  out_query.body.push_back(Atom::Make("@False", {y(1)}));
  for (size_t i = 1; i <= n; ++i) {
    // Rename disjuncts apart: Boolean disjuncts must not share variables
    // once conjoined in q'.
    ConjunctiveQuery renamed =
        omq.query.disjuncts[i - 1].RenamedApart(1000 + static_cast<int>(i));
    for (const Atom& a : renamed.body) {
      out_query.body.push_back(Annotate(a, x(i), kAnn));
    }
    out_query.body.push_back(or_atom(y(i), x(i), y(i + 1)));
  }
  out_query.body.push_back(Atom::Make("@True", {y(n + 1)}));

  return Omq{omq.data_schema, std::move(out_tgds), std::move(out_query)};
}

}  // namespace omqc
