// Binary serialization of the logic layer's value types — terms, atoms,
// CQs, UCQs and Instance arenas — for the persistent artifact store
// (src/cache/persist.h).
//
// Encoding invariants:
//   * Constants, variables and predicates are written by *name*, never by
//     interned id, so payloads are stable across processes and interning
//     orders and deserialization re-interns under the reader's tables.
//   * Nulls are written by id (they have no name) and restored as is; a
//     chase of a restored instance numbers its nulls above them.
//   * Deserializers are total over arbitrary bytes: malformed input
//     yields an error Status (via ByteReader's latched failure state),
//     never a crash or an out-of-bounds read.

#ifndef OMQC_LOGIC_SERIALIZE_H_
#define OMQC_LOGIC_SERIALIZE_H_

#include "base/binary_io.h"
#include "base/status.h"
#include "logic/cq.h"

namespace omqc {

void SerializeTerm(const Term& t, ByteWriter& out);
Result<Term> DeserializeTerm(ByteReader& in);

void SerializePredicate(Predicate p, ByteWriter& out);
Result<Predicate> DeserializePredicate(ByteReader& in);

void SerializeAtom(const Atom& a, ByteWriter& out);
Result<Atom> DeserializeAtom(ByteReader& in);

void SerializeCQ(const ConjunctiveQuery& q, ByteWriter& out);
Result<ConjunctiveQuery> DeserializeCQ(ByteReader& in);

/// Disjunct order is preserved exactly — rewriting output order is part
/// of the byte-identical-verdict contract (FormatAnswers/CLI output walk
/// the disjuncts in order).
void SerializeUCQ(const UnionOfCQs& ucq, ByteWriter& out);
Result<UnionOfCQs> DeserializeUCQ(ByteReader& in);

}  // namespace omqc

#endif  // OMQC_LOGIC_SERIALIZE_H_
