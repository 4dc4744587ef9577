// Experiment T1-L — Table 1, row "Linear".
//
// Paper: Cont((L,CQ)) is PSpace-complete, ΠP2-complete for fixed arity;
// witnesses to non-containment have at most |q1| atoms (Prop. 12), and for
// linear OMQs over unbounded arity containment is *no harder than
// evaluation* — the one row of Table 1 where the two coincide.
//
// Reproduced shape: containment runtime grows with |q| but the candidate
// witnesses stay ≤ |q1| atoms; the candidate count stays polynomial for
// these chain workloads.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace omqc {
namespace {

using bench::MakeSchema;

const char kSigma[] =
    "Edge(X,Y) -> Conn(X,Y)."
    "Conn(X,Y) -> Node(X)."
    "Marked(X) -> Node(X).";

/// Contained direction: an Edge-path is a Conn-path under Σ.
void BM_LinearContainmentPositive(benchmark::State& state) {
  int len = static_cast<int>(state.range(0));
  Schema schema = MakeSchema({{"Edge", 2}, {"Marked", 1}});
  Omq q1{schema, ParseTgds(kSigma).value(),
         bench::ChainQuery("Edge", len)};
  Omq q2{schema, ParseTgds(kSigma).value(),
         bench::ChainQuery("Conn", len)};
  size_t candidates = 0, max_witness = 0;
  EngineStats stats;
  for (auto _ : state) {
    auto result = CheckContainment(q1, q2);
    if (!result.ok() ||
        result->outcome != ContainmentOutcome::kContained) {
      state.SkipWithError("expected containment");
      return;
    }
    candidates = result->candidates_checked;
    max_witness = result->max_witness_size;
    stats = result->stats;
  }
  state.counters["candidates"] = static_cast<double>(candidates);
  state.counters["max_witness_atoms"] = static_cast<double>(max_witness);
  state.counters["prop12_bound"] = static_cast<double>(q1.query.size());
  bench::ReportEngineStats(state, stats);
}
BENCHMARK(BM_LinearContainmentPositive)->DenseRange(1, 8);

/// Refuted direction: a Conn-path does not imply an Edge-path.
void BM_LinearContainmentNegative(benchmark::State& state) {
  int len = static_cast<int>(state.range(0));
  Schema schema = MakeSchema({{"Edge", 2}, {"Conn", 2}, {"Marked", 1}});
  Omq q1{schema, ParseTgds(kSigma).value(),
         bench::ChainQuery("Conn", len)};
  Omq q2{schema, ParseTgds(kSigma).value(),
         bench::ChainQuery("Edge", len)};
  size_t max_witness = 0;
  EngineStats stats;
  for (auto _ : state) {
    auto result = CheckContainment(q1, q2);
    if (!result.ok() ||
        result->outcome != ContainmentOutcome::kNotContained) {
      state.SkipWithError("expected non-containment");
      return;
    }
    max_witness = result->max_witness_size;
    stats = result->stats;
  }
  state.counters["max_witness_atoms"] = static_cast<double>(max_witness);
  state.counters["prop12_bound"] = static_cast<double>(len);
  bench::ReportEngineStats(state, stats);
}
BENCHMARK(BM_LinearContainmentNegative)->DenseRange(1, 8);

/// Arity sweep: linear tgds over predicates of growing arity — the paper's
/// PSpace bound is exponential only in the arity.
void BM_LinearContainmentArity(benchmark::State& state) {
  int arity = static_cast<int>(state.range(0));
  std::string vars;
  for (int i = 0; i < arity; ++i) {
    if (i > 0) vars += ",";
    vars += "X" + std::to_string(i);
  }
  std::string sigma = "Wide(" + vars + ") -> Proj(X0).";
  Schema schema = MakeSchema({{"Wide", arity}});
  Omq q1{schema, ParseTgds(sigma).value(),
         ParseQuery("Q(X0) :- Proj(X0)").value()};
  Omq q2{schema, ParseTgds(sigma).value(),
         ParseQuery("Q(X0) :- Wide(" + vars + ")").value()};
  for (auto _ : state) {
    auto result = CheckContainment(q1, q2);
    if (!result.ok()) {
      state.SkipWithError("containment failed");
      return;
    }
    benchmark::DoNotOptimize(result->outcome);
  }
}
BENCHMARK(BM_LinearContainmentArity)->DenseRange(2, 10, 2);

}  // namespace
}  // namespace omqc

BENCHMARK_MAIN();
