// Experiments T1-S and P18 — Table 1, row "Sticky" + Prop. 18.
//
// Paper: Cont((S,CQ)) is coNExpTime-complete (ΠP2 for fixed arity); the
// smallest witnesses to non-containment can have 2^(n-2) facts — the
// Prop. 18 family {Q^n} realizes the bound, and the runtime is
// double-exponential only in the maximum arity of the data schema.
//
// Reproduced shape: the minimum witness size of Q^n doubles with every
// increment of n (exact 2^(n-2) series), and containment runtime follows.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "generators/families.h"

namespace omqc {
namespace {

/// The Prop. 18 series: the single rewriting disjunct of Q^n has exactly
/// 2^(n-2) atoms — the smallest database with Q^n(D) ≠ ∅.
void BM_StickyWitnessFamily(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Omq q = MakeStickyWitnessFamily(n);
  size_t witness = 0, disjuncts = 0;
  for (auto _ : state) {
    auto rewriting = XRewrite(q.data_schema, q.tgds, q.query);
    if (!rewriting.ok()) {
      state.SkipWithError("rewriting failed");
      return;
    }
    UnionOfCQs minimized = MinimizeUCQ(*rewriting);
    disjuncts = minimized.size();
    witness = minimized.MaxDisjunctSize();
  }
  state.counters["min_witness_facts"] = static_cast<double>(witness);
  state.counters["prop18_bound_2^(n-2)"] =
      static_cast<double>(size_t{1} << (n - 2));
  state.counters["disjuncts"] = static_cast<double>(disjuncts);
}
BENCHMARK(BM_StickyWitnessFamily)->DenseRange(3, 5);

/// Containment with a sticky LHS: Q^n against an OMQ that also demands
/// Ans(0,1) but from a weaker ontology — refuted via the exponential
/// witness.
void BM_StickyContainmentRefuted(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Omq q1 = MakeStickyWitnessFamily(n);
  // RHS: requires an S fact whose last position carries the constant 2 —
  // never true on the witnesses.
  std::string vars;
  for (int i = 0; i < n - 1; ++i) {
    if (i > 0) vars += ",";
    vars += "X" + std::to_string(i);
  }
  Omq q2{q1.data_schema, TgdSet{},
         ParseQuery("Q() :- S(" + vars + ",'2')").value()};
  size_t max_witness = 0;
  EngineStats stats;
  for (auto _ : state) {
    auto result = CheckContainment(q1, q2);
    if (!result.ok() ||
        result->outcome != ContainmentOutcome::kNotContained) {
      state.SkipWithError("expected refutation");
      return;
    }
    max_witness = result->max_witness_size;
    stats = result->stats;
  }
  state.counters["witness_facts"] = static_cast<double>(max_witness);
  bench::ReportEngineStats(state, stats);
}
BENCHMARK(BM_StickyContainmentRefuted)->DenseRange(3, 5);

/// Fixed-arity sticky containment (the ΠP2 row): lossless joins over a
/// binary schema; witnesses stay polynomial.
void BM_StickyContainmentFixedArity(benchmark::State& state) {
  int len = static_cast<int>(state.range(0));
  Schema schema = bench::MakeSchema({{"R", 2}, {"P", 2}});
  const char kSigma[] =
      "R(X,Y), P(X,Z) -> T(X,Y,Z)."
      "T(X,Y,Z) -> Both(X).";
  Omq q1{schema, ParseTgds(kSigma).value(), bench::ChainQuery("R", len)};
  Omq q2{schema, ParseTgds(kSigma).value(), bench::ChainQuery("R", 1)};
  size_t max_witness = 0;
  for (auto _ : state) {
    auto result = CheckContainment(q1, q2);
    if (!result.ok() ||
        result->outcome != ContainmentOutcome::kContained) {
      state.SkipWithError("expected containment");
      return;
    }
    max_witness = result->max_witness_size;
  }
  state.counters["max_witness_atoms"] = static_cast<double>(max_witness);
  state.counters["prop17_bound"] = static_cast<double>(
      StickyRewriteBound(schema, q1.tgds, q1.query));
}
BENCHMARK(BM_StickyContainmentFixedArity)->DenseRange(1, 6);

}  // namespace
}  // namespace omqc

BENCHMARK_MAIN();
