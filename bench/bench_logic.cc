// Experiment LG — Instance storage substrate throughput.
//
// Not a paper table; measures the atom-storage layer every engine sits on:
// ingest (Add with dedup + index maintenance), membership probes, and the
// index scans that back the homomorphism engine's candidate enumeration.
// These are the microbenches behind the columnar-arena refactor (DESIGN.md
// "Atom storage layout"); EXPERIMENTS.md records before/after and the
// bytes-per-atom figure.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "logic/cq.h"
#include "logic/homomorphism.h"
#include "logic/instance.h"
#include "logic/postings_kernels.h"

namespace omqc {
namespace {

/// A deterministic workload of arity-3 atoms over `preds` predicates and
/// `domain` constants, with ~12% duplicates (dedup is part of ingest).
std::vector<Atom> MakeWorkload(size_t n, int preds, int domain) {
  std::vector<Predicate> ps;
  for (int p = 0; p < preds; ++p) {
    ps.push_back(Predicate::Get("R" + std::to_string(p), 3));
  }
  std::vector<Term> cs;
  for (int c = 0; c < domain; ++c) {
    cs.push_back(Term::Constant("c" + std::to_string(c)));
  }
  std::vector<Atom> atoms;
  atoms.reserve(n);
  uint64_t x = 88172645463325252ull;  // xorshift64
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (size_t i = 0; i < n; ++i) {
    if (i > 8 && next() % 8 == 0) {
      atoms.push_back(atoms[next() % i]);  // duplicate
      continue;
    }
    Predicate p = ps[next() % ps.size()];
    std::vector<Term> args = {cs[next() % cs.size()], cs[next() % cs.size()],
                              cs[next() % cs.size()]};
    atoms.emplace_back(p, std::move(args));
  }
  return atoms;
}

Instance MakeInstance(const std::vector<Atom>& atoms) {
  Instance inst;
  for (const Atom& a : atoms) inst.Add(a);
  return inst;
}

/// Ingest: per-atom cost of Add (hash probe, arena append, index posting).
void BM_InstanceIngest(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<Atom> atoms = MakeWorkload(n, /*preds=*/8, /*domain=*/64);
  size_t unique = 0;
  double bytes_per_atom = 0;
  for (auto _ : state) {
    Instance inst;
    for (const Atom& a : atoms) inst.Add(a);
    unique = inst.size();
    bytes_per_atom =
        static_cast<double>(inst.MemoryBytes()) / static_cast<double>(unique);
    benchmark::DoNotOptimize(inst);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
  state.counters["unique_atoms"] = static_cast<double>(unique);
  state.counters["bytes_per_atom"] = bytes_per_atom;
}
BENCHMARK(BM_InstanceIngest)->RangeMultiplier(8)->Range(1 << 10, 1 << 16);

/// Membership: Contains over an alternating mix of present/absent atoms.
void BM_InstanceContains(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<Atom> atoms = MakeWorkload(n, 8, 64);
  Instance inst = MakeInstance(atoms);
  // Absent probes: same predicates over a disjoint domain.
  std::vector<Atom> absent = MakeWorkload(n, 8, 64);
  for (Atom& a : absent) a.args[0] = Term::Constant("zz_absent");
  size_t hits = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (inst.Contains(atoms[i])) ++hits;
      if (inst.Contains(absent[i])) ++hits;
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<int64_t>(2 * n) * state.iterations());
}
BENCHMARK(BM_InstanceContains)->Arg(1 << 14);

/// Scan: enumerate, per (predicate, position, term) key, every matching
/// atom and touch all its arguments — the homomorphism engine's candidate
/// scan, isolated from the backtracking around it.
void BM_InstanceScanByArg(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<Atom> atoms = MakeWorkload(n, 8, 64);
  Instance inst = MakeInstance(atoms);
  std::vector<Predicate> ps;
  for (int p = 0; p < 8; ++p) {
    ps.push_back(Predicate::Get("R" + std::to_string(p), 3));
  }
  std::vector<Term> cs;
  for (int c = 0; c < 64; ++c) {
    cs.push_back(Term::Constant("c" + std::to_string(c)));
  }
  size_t scanned = 0;
  for (auto _ : state) {
    scanned = 0;
    for (const Predicate& p : ps) {
      for (int pos = 0; pos < 3; ++pos) {
        for (const Term& t : cs) {
          for (AtomId id : inst.IdsWithArg(p, pos, t)) {
            AtomView a = inst.view(id);
            for (const Term& arg : a) {
              benchmark::DoNotOptimize(arg.id());
            }
            ++scanned;
          }
        }
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(scanned) *
                          state.iterations());
  state.counters["atoms_scanned"] = static_cast<double>(scanned);
}
BENCHMARK(BM_InstanceScanByArg)->RangeMultiplier(4)->Range(1 << 12, 1 << 16);

/// Scan: full per-predicate postings sweep, touching every argument of
/// every atom — the unindexed-candidate fallback path. Iterates the packed
/// predicate-major mirror (Instance::Postings), exactly as the
/// homomorphism engine's fallback does since the postings-kernel fix; the
/// interleaved id-loop it replaced is kept below as the contrast.
void BM_InstanceScanByPredicate(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<Atom> atoms = MakeWorkload(n, 8, 64);
  Instance inst = MakeInstance(atoms);
  std::vector<Predicate> ps;
  for (int p = 0; p < 8; ++p) {
    ps.push_back(Predicate::Get("R" + std::to_string(p), 3));
  }
  size_t scanned = 0;
  for (auto _ : state) {
    scanned = 0;
    for (const Predicate& p : ps) {
      PostingsSpan span = inst.Postings(p);
      for (size_t j = 0; j < span.size(); ++j) {
        AtomView a = span.view(j);
        for (const Term& arg : a) {
          benchmark::DoNotOptimize(arg.id());
        }
        ++scanned;
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(scanned) *
                          state.iterations());
}
BENCHMARK(BM_InstanceScanByPredicate)
    ->RangeMultiplier(4)
    ->Range(1 << 12, 1 << 16);

/// The same full sweep through the interleaved id postings + view(id) —
/// the access pattern behind the PR-5 regression (eight predicates stride
/// the shared record/pool arrays). Kept as the contrast measuring what the
/// predicate-major mirror buys.
void BM_InstanceScanByPredicateInterleaved(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<Atom> atoms = MakeWorkload(n, 8, 64);
  Instance inst = MakeInstance(atoms);
  std::vector<Predicate> ps;
  for (int p = 0; p < 8; ++p) {
    ps.push_back(Predicate::Get("R" + std::to_string(p), 3));
  }
  size_t scanned = 0;
  for (auto _ : state) {
    scanned = 0;
    for (const Predicate& p : ps) {
      for (AtomId id : inst.IdsWith(p)) {
        AtomView a = inst.view(id);
        for (const Term& arg : a) {
          benchmark::DoNotOptimize(arg.id());
        }
        ++scanned;
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(scanned) *
                          state.iterations());
}
BENCHMARK(BM_InstanceScanByPredicateInterleaved)->Arg(1 << 14);

/// Batched ingest: AddBatch's pipelined hash/prefetch schedule against the
/// same workload BM_InstanceIngest feeds through one-at-a-time Add.
void BM_InstanceIngestBatch(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<Atom> atoms = MakeWorkload(n, /*preds=*/8, /*domain=*/64);
  for (auto _ : state) {
    Instance inst;
    inst.AddBatch(atoms);
    benchmark::DoNotOptimize(inst);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_InstanceIngestBatch)->Arg(1 << 14);

/// The k-way intersection kernel on synthetic postings with controlled
/// skew: two sorted lists sharing every `share`-th element, length ratio
/// `skew` (1 = dense/dense merge, 64 = galloping regime).
void BM_PostingsIntersect(benchmark::State& state) {
  const size_t small_n = 1 << 10;
  const size_t skew = static_cast<size_t>(state.range(0));
  std::vector<AtomId> small, large;
  for (size_t i = 0; i < small_n; ++i) {
    small.push_back(static_cast<AtomId>(i * skew + (i % 3 == 0 ? 0 : 1)));
  }
  for (size_t i = 0; i < small_n * skew; ++i) {
    large.push_back(static_cast<AtomId>(i));
  }
  std::vector<AtomId> out;
  out.reserve(small_n);
  size_t hits = 0;
  for (auto _ : state) {
    out.clear();
    IntersectPostings(small.data(), small.size(), large.data(), large.size(),
                      out);
    hits = out.size();
  }
  benchmark::DoNotOptimize(hits);
  state.counters["result_size"] = static_cast<double>(hits);
  state.SetItemsProcessed(static_cast<int64_t>(small_n) *
                          state.iterations());
}
BENCHMARK(BM_PostingsIntersect)->Arg(1)->Arg(64);

/// The admission path's search shape: membership tests "frozen answer
/// tuple of q_j ∈ q_i(D_{q_j})" for every ordered pair of `n` random CQs
/// of 2–6 atoms with one answer variable — the Chandra–Merlin test the
/// subsumption scan and MinimizeCQ run per rewriting. Thousands of tiny
/// searches, so per-search setup dominates, not candidate scanning.
void BM_FrozenCQMembership(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<Predicate> preds = {Predicate::Get("E", 2),
                                        Predicate::Get("F", 2),
                                        Predicate::Get("G", 3)};
  uint64_t x = 0x9e3779b97f4a7c15ull;  // xorshift64
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<ConjunctiveQuery> queries;
  std::vector<FrozenQuery> frozen;
  for (size_t q = 0; q < n; ++q) {
    const size_t size = 2 + next() % 5;
    std::vector<Atom> body;
    for (size_t a = 0; a < size; ++a) {
      Predicate p = preds[next() % preds.size()];
      std::vector<Term> args;
      for (int i = 0; i < p.arity(); ++i) {
        // size + 1 variables over `size` atoms: most atoms join.
        const size_t v = a == 0 && i == 0 ? 0 : next() % (size + 1);
        args.push_back(Term::Variable("X" + std::to_string(v)));
      }
      body.emplace_back(p, std::move(args));
    }
    queries.emplace_back(std::vector<Term>{Term::Variable("X0")},
                         std::move(body));
    frozen.push_back(Freeze(queries.back()));
  }
  size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    for (const ConjunctiveQuery& q : queries) {
      for (const FrozenQuery& f : frozen) {
        hits += TupleInAnswer(q, f.database, f.answer_tuple) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n * n) * state.iterations());
  state.counters["hit_ratio"] =
      static_cast<double>(hits) / static_cast<double>(n * n);
}
BENCHMARK(BM_FrozenCQMembership)->Arg(64);

}  // namespace
}  // namespace omqc

BENCHMARK_MAIN();
