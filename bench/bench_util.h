// Shared helpers for the omqc benchmark harness.
//
// Every bench binary regenerates one row/figure of the paper (see
// DESIGN.md's experiment index); besides google-benchmark timings, each
// reports the *shape* quantities the paper predicts (witness sizes,
// rewriting sizes, chase level counts) as benchmark counters.

#ifndef OMQC_BENCH_BENCH_UTIL_H_
#define OMQC_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <initializer_list>
#include <string>
#include <utility>

#include "core/containment.h"
#include "tgd/parser.h"

namespace omqc {
namespace bench {

/// Exports the per-layer EngineStats of one containment run as benchmark
/// counters (last iteration wins — the engine is deterministic, so every
/// iteration does the same work).
inline void ReportEngineStats(benchmark::State& state, const EngineStats& s) {
  state.counters["disjuncts_checked"] =
      static_cast<double>(s.disjuncts_checked);
  state.counters["witnesses_rejected"] =
      static_cast<double>(s.witnesses_rejected);
  state.counters["budget_exhaustions"] =
      static_cast<double>(s.budget_exhaustions);
  state.counters["rw_queries"] = static_cast<double>(s.rewrite.queries_generated);
  state.counters["rw_dedup_hits"] = static_cast<double>(s.rewrite.dedup_hits);
  state.counters["rw_subsumption_prunes"] =
      static_cast<double>(s.rewrite.subsumption_prunes);
  state.counters["rw_subsumption_checks"] =
      static_cast<double>(s.rewrite.subsumption_checks);
  state.counters["rw_minimize_checks"] =
      static_cast<double>(s.rewrite.minimize_checks);
  state.counters["hom_searches"] = static_cast<double>(s.hom.searches);
  state.counters["hom_steps"] = static_cast<double>(s.hom.steps);
  state.counters["hom_candidates"] =
      static_cast<double>(s.hom.candidates_scanned);
  state.counters["chase_steps"] = static_cast<double>(s.chase_steps);
  state.counters["chase_atoms"] = static_cast<double>(s.chase_atoms_derived);
}

inline Schema MakeSchema(
    std::initializer_list<std::pair<const char*, int>> preds) {
  Schema s;
  for (const auto& [name, arity] : preds) {
    s.Add(Predicate::Get(name, arity));
  }
  return s;
}

inline Omq MakeOmq(Schema schema, const std::string& tgds,
                   const std::string& query) {
  return Omq{std::move(schema), ParseTgds(tgds).value(),
             ParseQuery(query).value()};
}

/// A chain CQ over predicate `pred`: Q(X0) :- pred(X0,X1), ...,
/// pred(X_{len-1}, X_len).
inline ConjunctiveQuery ChainQuery(const std::string& pred, int len) {
  std::string text = "Q(X0) :- ";
  for (int i = 0; i < len; ++i) {
    if (i > 0) text += ", ";
    text += pred + "(X" + std::to_string(i) + ",X" + std::to_string(i + 1) +
            ")";
  }
  return ParseQuery(text).value();
}

}  // namespace bench
}  // namespace omqc

#endif  // OMQC_BENCH_BENCH_UTIL_H_
