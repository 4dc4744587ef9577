// Experiment GA — guarded-fragment automata emptiness (ROADMAP item 3).
//
// Paper: the guarded decision procedures (Prop. 21/25) reduce to 2WAPA
// emptiness over ΓS,l trees; the automata path is the cost center in the
// related work (Bourhis–Lutz, Bourhis–Krötzsch–Rudolph). These benches
// race the antichain engine (automata/emptiness.h) against the reference
// subset-construction oracle (automata/downward.h) on three families:
//
//  * Gamma     — Prop. 25 compositions (consistency ∩ atom presence) over
//                an explicit ΓS,l alphabet; the realistic label-heavy load.
//  * MultiReach — the intersection of k "some node carries label i"
//                automata; the reference interns a subset lattice while
//                the antichain engine early-exits on productivity.
//  * Chain     — k chained existential obligations; linear for both, so
//                it isolates the per-set constant factors (bitset intern +
//                memo vs. std::set copies + DNF recomputation).
//
// BM_*Governed re-runs the antichain engine with an (untripped) governor
// attached; EXPERIMENTS.md "GA" derives the governed-overhead percentage
// from the Governed/plain pair.

#include <benchmark/benchmark.h>

#include <chrono>

#include "automata/downward.h"
#include "automata/emptiness.h"
#include "base/governor.h"
#include "core/guarded_automata.h"

namespace omqc {
namespace {

void ReportEmptinessStats(benchmark::State& state,
                          const EmptinessStats& stats) {
  state.counters["states_explored"] =
      static_cast<double>(stats.states_explored);
  state.counters["states_subsumed"] =
      static_cast<double>(stats.states_subsumed);
  state.counters["antichain_size"] =
      static_cast<double>(stats.antichain_size);
  state.counters["emptiness_rounds"] =
      static_cast<double>(stats.emptiness_rounds);
  state.counters["dnf_cache_hits"] =
      static_cast<double>(stats.dnf_cache_hits);
}

/// Prop. 25 shape: consistency ∩ "some pred-atom appears" over the ΓS,l
/// alphabet of a tiny schema. `present` selects a schema predicate (the
/// language is non-empty) or a foreign one (empty: the engine must reach
/// the fixpoint to prove it).
Twapa GammaWitness(bool present) {
  Schema schema;
  schema.Add(Predicate::Get("r", 2));
  schema.Add(Predicate::Get("A", 1));
  GammaAlphabet alphabet =
      EnumerateGammaAlphabet(schema, 1, 1, 500000).value();
  Twapa consistency = ConsistencyAutomaton(alphabet);
  Predicate probe =
      present ? Predicate::Get("r", 2) : Predicate::Get("missing", 1);
  return Intersect(consistency, AtomPresenceAutomaton(alphabet, probe))
      .value();
}

/// The intersection of k single-state automata "some node carries label
/// i". Obligation sets are the subsets of pending labels: the reference
/// subset construction interns a lattice, the antichain engine proves the
/// initial set productive and stops.
Twapa MultiReach(int k) {
  Twapa out;
  for (int i = 0; i < k; ++i) {
    Twapa reach;
    reach.num_states = 1;
    reach.num_labels = k;
    reach.initial_state = 0;
    reach.mode = AcceptanceMode::kFiniteRuns;
    reach.delta = [i](int, int label) {
      return label == i ? Formula::True() : Diamond(Move::kChild, 0);
    };
    out = i == 0 ? reach : Intersect(out, reach).value();
  }
  return out;
}

/// k chained existential obligations over one label; the last accepts.
Twapa Chain(int k) {
  Twapa a;
  a.num_states = k;
  a.num_labels = 1;
  a.initial_state = 0;
  a.mode = AcceptanceMode::kFiniteRuns;
  a.delta = [k](int state, int) {
    return state == k - 1 ? Formula::True()
                          : Diamond(Move::kChild, state + 1);
  };
  return a;
}

/// One emptiness engine: the antichain engine (DownwardEmptiness) or the
/// reference subset construction (Reference), which reports no stats.
using EmptinessFn = Result<bool> (*)(const Twapa&, const DownwardOptions&,
                                     EmptinessStats*);

Result<bool> Reference(const Twapa& automaton, const DownwardOptions& options,
                       EmptinessStats*) {
  return DownwardIsEmpty(automaton, options);
}

void RunEmptiness(benchmark::State& state, const Twapa& automaton,
                  EmptinessFn engine, bool expected_empty,
                  ResourceGovernor* governor = nullptr) {
  EmptinessStats stats;
  for (auto _ : state) {
    EmptinessStats iteration_stats;
    DownwardOptions options;
    options.governor = governor;
    options.max_states = 1u << 20;
    auto result = engine(automaton, options, &iteration_stats);
    if (!result.ok() || *result != expected_empty) {
      state.SkipWithError("wrong or failed emptiness verdict");
      return;
    }
    stats = iteration_stats;
  }
  ReportEmptinessStats(state, stats);
}

// ---- Gamma: the Prop. 25 composition. ----

void BM_GammaEmptiness_Reference(benchmark::State& state) {
  Twapa automaton = GammaWitness(state.range(0) != 0);
  RunEmptiness(state, automaton, &Reference, state.range(0) == 0);
}
BENCHMARK(BM_GammaEmptiness_Reference)->Arg(0)->Arg(1);

void BM_GammaEmptiness_Antichain(benchmark::State& state) {
  Twapa automaton = GammaWitness(state.range(0) != 0);
  RunEmptiness(state, automaton, &DownwardEmptiness, state.range(0) == 0);
}
BENCHMARK(BM_GammaEmptiness_Antichain)->Arg(0)->Arg(1);

void BM_GammaEmptiness_AntichainGoverned(benchmark::State& state) {
  Twapa automaton = GammaWitness(state.range(0) != 0);
  // Generous, never-tripping budgets: this measures pure probe overhead.
  ResourceGovernor governor;
  governor.set_deadline_after(std::chrono::hours(1));
  governor.set_memory_budget(size_t{1} << 33);
  RunEmptiness(state, automaton, &DownwardEmptiness, state.range(0) == 0,
               &governor);
}
BENCHMARK(BM_GammaEmptiness_AntichainGoverned)->Arg(0)->Arg(1);

// ---- MultiReach: subset-lattice blow-up vs. early exit. ----

void BM_MultiReachEmptiness_Reference(benchmark::State& state) {
  Twapa automaton = MultiReach(static_cast<int>(state.range(0)));
  RunEmptiness(state, automaton, &Reference, false);
}
BENCHMARK(BM_MultiReachEmptiness_Reference)->DenseRange(4, 10, 2);

void BM_MultiReachEmptiness_Antichain(benchmark::State& state) {
  Twapa automaton = MultiReach(static_cast<int>(state.range(0)));
  RunEmptiness(state, automaton, &DownwardEmptiness, false);
}
BENCHMARK(BM_MultiReachEmptiness_Antichain)->DenseRange(4, 10, 2);

// ---- Chain: per-set constant factors. ----

void BM_ChainEmptiness_Reference(benchmark::State& state) {
  Twapa automaton = Chain(static_cast<int>(state.range(0)));
  RunEmptiness(state, automaton, &Reference, false);
}
BENCHMARK(BM_ChainEmptiness_Reference)->Arg(64)->Arg(256);

void BM_ChainEmptiness_Antichain(benchmark::State& state) {
  Twapa automaton = Chain(static_cast<int>(state.range(0)));
  RunEmptiness(state, automaton, &DownwardEmptiness, false);
}
BENCHMARK(BM_ChainEmptiness_Antichain)->Arg(64)->Arg(256);

}  // namespace
}  // namespace omqc

BENCHMARK_MAIN();
