#include "logic/serialize.h"

#include <unordered_map>
#include <vector>

#include "logic/instance.h"

namespace omqc {
namespace {

/// Guard against hostile length prefixes: a count field may not promise
/// more elements than one byte each of remaining input.
bool PlausibleCount(uint64_t count, const ByteReader& in) {
  return count <= in.remaining();
}

}  // namespace

void SerializeTerm(const Term& t, ByteWriter& out) {
  out.U8(static_cast<uint8_t>(t.kind()));
  if (t.IsNull()) {
    out.I32(t.id());
  } else {
    out.Str(t.ToString());
  }
}

Result<Term> DeserializeTerm(ByteReader& in) {
  uint8_t kind = in.U8();
  if (!in.ok()) return Status::InvalidArgument("truncated term");
  switch (static_cast<TermKind>(kind)) {
    case TermKind::kConstant: {
      std::string name = in.Str();
      if (!in.ok()) return Status::InvalidArgument("truncated constant name");
      return Term::Constant(name);
    }
    case TermKind::kVariable: {
      std::string name = in.Str();
      if (!in.ok()) return Status::InvalidArgument("truncated variable name");
      return Term::Variable(name);
    }
    case TermKind::kNull: {
      int32_t id = in.I32();
      if (!in.ok() || id < 0) return Status::InvalidArgument("bad null id");
      return Term::NullWithId(id);
    }
  }
  return Status::InvalidArgument("unknown term kind");
}

void SerializePredicate(Predicate p, ByteWriter& out) {
  out.Str(p.name());
  out.U32(static_cast<uint32_t>(p.arity()));
}

Result<Predicate> DeserializePredicate(ByteReader& in) {
  std::string name = in.Str();
  uint32_t arity = in.U32();
  if (!in.ok() || arity > 255) return Status::InvalidArgument("bad predicate");
  return Predicate::Get(name, static_cast<int>(arity));
}

void SerializeAtom(const Atom& a, ByteWriter& out) {
  SerializePredicate(a.predicate, out);
  out.U32(static_cast<uint32_t>(a.args.size()));
  for (const Term& t : a.args) SerializeTerm(t, out);
}

Result<Atom> DeserializeAtom(ByteReader& in) {
  OMQC_ASSIGN_OR_RETURN(Predicate p, DeserializePredicate(in));
  uint32_t n = in.U32();
  if (!in.ok() || !PlausibleCount(n, in)) {
    return Status::InvalidArgument("bad atom arg count");
  }
  std::vector<Term> args;
  args.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    OMQC_ASSIGN_OR_RETURN(Term t, DeserializeTerm(in));
    args.push_back(t);
  }
  return Atom(p, std::move(args));
}

void SerializeCQ(const ConjunctiveQuery& q, ByteWriter& out) {
  out.U32(static_cast<uint32_t>(q.answer_vars.size()));
  for (const Term& t : q.answer_vars) SerializeTerm(t, out);
  out.U32(static_cast<uint32_t>(q.body.size()));
  for (const Atom& a : q.body) SerializeAtom(a, out);
}

Result<ConjunctiveQuery> DeserializeCQ(ByteReader& in) {
  ConjunctiveQuery q;
  uint32_t n_answers = in.U32();
  if (!in.ok() || !PlausibleCount(n_answers, in)) {
    return Status::InvalidArgument("bad answer tuple count");
  }
  q.answer_vars.reserve(n_answers);
  for (uint32_t i = 0; i < n_answers; ++i) {
    OMQC_ASSIGN_OR_RETURN(Term t, DeserializeTerm(in));
    q.answer_vars.push_back(t);
  }
  uint32_t n_atoms = in.U32();
  if (!in.ok() || !PlausibleCount(n_atoms, in)) {
    return Status::InvalidArgument("bad body atom count");
  }
  q.body.reserve(n_atoms);
  for (uint32_t i = 0; i < n_atoms; ++i) {
    OMQC_ASSIGN_OR_RETURN(Atom a, DeserializeAtom(in));
    q.body.push_back(std::move(a));
  }
  return q;
}

void SerializeUCQ(const UnionOfCQs& ucq, ByteWriter& out) {
  out.U32(static_cast<uint32_t>(ucq.disjuncts.size()));
  for (const ConjunctiveQuery& d : ucq.disjuncts) SerializeCQ(d, out);
}

Result<UnionOfCQs> DeserializeUCQ(ByteReader& in) {
  uint32_t n = in.U32();
  if (!in.ok() || !PlausibleCount(n, in)) {
    return Status::InvalidArgument("bad disjunct count");
  }
  UnionOfCQs ucq;
  ucq.disjuncts.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    OMQC_ASSIGN_OR_RETURN(ConjunctiveQuery q, DeserializeCQ(in));
    ucq.disjuncts.push_back(std::move(q));
  }
  return ucq;
}

// Instance arena snapshot. Layout:
//   u32 n_predicates, per predicate: name + arity
//   u32 n_terms, per term: the inline term encoding (names / null ids)
//   u32 n_atoms, per atom: u32 predicate index + u32 term index per arg
// Atoms are written in insertion order; Restore re-Adds them in that
// order, which reproduces identical AtomIds, dedup state and postings.
void Instance::Snapshot(ByteWriter& out) const {
  std::vector<Predicate> preds;
  std::unordered_map<int32_t, uint32_t> pred_index;
  std::vector<Term> terms;
  std::unordered_map<Term, uint32_t, TermHash> term_index;
  for (AtomId id = 0; id < records_.size(); ++id) {
    AtomView v = view(id);
    if (pred_index.emplace(v.predicate().id(),
                           static_cast<uint32_t>(preds.size())).second) {
      preds.push_back(v.predicate());
    }
    for (const Term& t : v) {
      if (term_index.emplace(t, static_cast<uint32_t>(terms.size())).second) {
        terms.push_back(t);
      }
    }
  }
  out.U32(static_cast<uint32_t>(preds.size()));
  for (Predicate p : preds) SerializePredicate(p, out);
  out.U32(static_cast<uint32_t>(terms.size()));
  for (const Term& t : terms) SerializeTerm(t, out);
  out.U32(static_cast<uint32_t>(records_.size()));
  for (AtomId id = 0; id < records_.size(); ++id) {
    AtomView v = view(id);
    out.U32(pred_index.at(v.predicate().id()));
    // Per-atom arity: hand-built atoms may disagree with the predicate's
    // declared arity, and the arena stores them faithfully.
    out.U8(static_cast<uint8_t>(v.arity()));
    for (const Term& t : v) out.U32(term_index.at(t));
  }
}

Result<Instance> Instance::Restore(ByteReader& in) {
  uint32_t n_preds = in.U32();
  if (!in.ok() || n_preds > in.remaining()) {
    return Status::InvalidArgument("bad predicate dictionary");
  }
  std::vector<Predicate> preds;
  preds.reserve(n_preds);
  for (uint32_t i = 0; i < n_preds; ++i) {
    OMQC_ASSIGN_OR_RETURN(Predicate p, DeserializePredicate(in));
    preds.push_back(p);
  }
  uint32_t n_terms = in.U32();
  if (!in.ok() || n_terms > in.remaining()) {
    return Status::InvalidArgument("bad term dictionary");
  }
  std::vector<Term> terms;
  terms.reserve(n_terms);
  for (uint32_t i = 0; i < n_terms; ++i) {
    OMQC_ASSIGN_OR_RETURN(Term t, DeserializeTerm(in));
    terms.push_back(t);
  }
  uint32_t n_atoms = in.U32();
  if (!in.ok() || n_atoms > in.remaining()) {
    return Status::InvalidArgument("bad atom count");
  }
  Instance instance;
  std::vector<Term> args;
  for (uint32_t i = 0; i < n_atoms; ++i) {
    uint32_t pi = in.U32();
    uint8_t arity = in.U8();
    if (!in.ok() || pi >= preds.size()) {
      return Status::InvalidArgument("bad predicate index");
    }
    Predicate p = preds[pi];
    args.clear();
    for (int j = 0; j < static_cast<int>(arity); ++j) {
      uint32_t ti = in.U32();
      if (!in.ok() || ti >= terms.size()) {
        return Status::InvalidArgument("bad term index");
      }
      args.push_back(terms[ti]);
    }
    instance.AddView(AtomView(p, args.data(), args.size()));
  }
  return instance;
}

}  // namespace omqc
