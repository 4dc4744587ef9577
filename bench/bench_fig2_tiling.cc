// Experiment F2 — Figure 2 (inductive 2^i × 2^i tiling construction).
//
// Paper: Figure 2 shows how nine overlapping 2^{i-1}-subgrids assemble a
// 2^i grid — the engine of the Thm. 16 encoding. The chase of the tiling
// rules materializes all grid tilings level by level.
//
// Reproduced shape: chase atoms per derivation level for the T_i pyramid;
// the level population grows with the tiling space (doubling grid side).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "chase/chase.h"
#include "generators/tiling.h"

namespace omqc {
namespace {

EtpEncoding FreeEncoding(int n, int m) {
  ExtendedTilingInstance etp;
  etp.k = 1;
  etp.n = n;
  etp.m = m;
  for (int i = 1; i <= m; ++i) {
    for (int j = 1; j <= m; ++j) {
      etp.h1.insert({i, j});
      etp.v1.insert({i, j});
      etp.h2 = etp.h1;
      etp.v2 = etp.v1;
    }
  }
  return EncodeExtendedTiling(etp).value();
}

/// Chases the Figure 2 rules: counts T_i atoms (grid tilings) per level.
void BM_TilingPyramidChase(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  EtpEncoding encoding = FreeEncoding(n, 2);
  Database db;
  db.Add(Atom::Make("C_0_1", {}));
  ChaseOptions options;
  options.max_atoms = 2000000;
  size_t atoms = 0;
  int levels = 0;
  size_t t1_count = 0, tn_count = 0;
  for (auto _ : state) {
    auto result = Chase(db, encoding.q1.tgds, options);
    if (!result.ok() || !result->complete) {
      state.SkipWithError("chase did not complete");
      return;
    }
    atoms = result->instance.size();
    levels = result->max_level_reached;
    t1_count = result->instance.IdsWith(Predicate::Get("T1", 5)).size();
    tn_count = result->instance
                   .IdsWith(Predicate::Get("T" + std::to_string(n), 5))
                   .size();
  }
  state.counters["chase_atoms"] = static_cast<double>(atoms);
  state.counters["levels"] = levels;
  state.counters["t1_tilings_2x2"] = static_cast<double>(t1_count);
  state.counters["tn_tilings"] = static_cast<double>(tn_count);
}
BENCHMARK(BM_TilingPyramidChase)->DenseRange(1, 2);

/// The same pyramid with the checkerboard constraint: fewer tilings
/// survive each level (constraint pruning shape).
void BM_TilingPyramidCheckerboard(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ExtendedTilingInstance etp;
  etp.k = 1;
  etp.n = n;
  etp.m = 2;
  etp.h1 = {{1, 2}, {2, 1}};
  etp.v1 = {{1, 2}, {2, 1}};
  etp.h2 = etp.h1;
  etp.v2 = etp.v1;
  EtpEncoding encoding = EncodeExtendedTiling(etp).value();
  Database db;
  db.Add(Atom::Make("C_0_1", {}));
  size_t t1_count = 0;
  for (auto _ : state) {
    auto result = Chase(db, encoding.q1.tgds, ChaseOptions());
    if (!result.ok() || !result->complete) {
      state.SkipWithError("chase did not complete");
      return;
    }
    t1_count = result->instance.IdsWith(Predicate::Get("T1", 5)).size();
  }
  // Checkerboard 2x2 tilings: exactly 2 (up to the choice of corner).
  state.counters["t1_tilings_2x2"] = static_cast<double>(t1_count);
}
BENCHMARK(BM_TilingPyramidCheckerboard)->DenseRange(1, 2);

}  // namespace
}  // namespace omqc

BENCHMARK_MAIN();
