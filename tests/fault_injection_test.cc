// The chaos suite: every public entry point (Chase, XRewrite, Eval,
// CheckUcqOmqContainment) is driven under
// deterministic injected faults — deadline trips, cancellations, memory
// exhaustion and dropped cache inserts — plus a live cancellation from
// another thread. The invariants:
//
//   1. Never crash, never hang (the workloads are small; ctest enforces a
//      timeout as backstop).
//   2. Always return a well-formed Status: either OK with a sound result,
//      or one of the governor codes with a non-empty message.
//   3. Never a torn result: partial outputs are subsets of the unfaulted
//      run's outputs (chase atoms), and stats counters stay consistent.
//   4. Never a wrong definite verdict: a faulted containment run may
//      degrade kContained/kNotContained to kUnknown (or an error), but
//      must never report the OPPOSITE definite outcome.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/fault_injection.h"
#include "base/governor.h"
#include "cache/omq_cache.h"
#include "chase/chase.h"
#include "core/containment.h"
#include "core/eval.h"
#include "rewrite/xrewrite.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

Schema S(std::initializer_list<std::pair<const char*, int>> preds) {
  Schema s;
  for (const auto& [name, arity] : preds) {
    s.Add(Predicate::Get(name, arity));
  }
  return s;
}

bool IsGovernorCode(StatusCode code) {
  return code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kCancelled ||
         code == StatusCode::kResourceExhausted;
}

/// The fault points swept per entry point: early (first check), mid-run
/// and late enough that small workloads may finish first (which is fine —
/// the run must then return its normal result).
const uint64_t kCheckPoints[] = {1, 3, 10, 50, 400};

// ---------------------------------------------------------------------------
// Chase under injected trips: returns OK (chase only errors on ill-formed
// input), marks the run incomplete via `interrupt`, and every atom present
// is a sound consequence (a subset of the unfaulted fixpoint).
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, ChaseTruncatesSoundlyAtEveryFaultPoint) {
  TgdSet tgds = ParseTgds(
                    "A(X) -> B(X). B(X) -> C(X). "
                    "C(X), Edge(X,Y) -> A(Y).")
                    .value();
  Database db =
      ParseDatabase("A(a). Edge(a,b). Edge(b,c). Edge(c,d).").value();
  ChaseResult reference = Chase(db, tgds).value();
  ASSERT_TRUE(reference.complete);

  for (StatusCode injected :
       {StatusCode::kDeadlineExceeded, StatusCode::kCancelled}) {
    for (uint64_t at : kCheckPoints) {
      FaultPlan plan;
      plan.seed = at;
      (injected == StatusCode::kDeadlineExceeded ? plan.deadline_at_check
                                                 : plan.cancel_at_check) = at;
      FaultInjector injector(plan);
      ResourceGovernor governor;
      governor.set_fault_injector(&injector);
      ChaseOptions options;
      options.governor = &governor;
      auto result = Chase(db, tgds, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (injector.fired()) {
        EXPECT_FALSE(result->complete) << "fault at check " << at;
        EXPECT_EQ(result->interrupt.code(), injected);
        EXPECT_FALSE(result->interrupt.message().empty());
      } else {
        // The run finished before check #at: it must be the normal result.
        EXPECT_TRUE(result->complete);
        EXPECT_TRUE(result->interrupt.ok());
        EXPECT_EQ(result->instance.size(), reference.instance.size());
      }
      // Soundness: truncated or not, every atom is a real consequence.
      for (AtomId id = 0; id < result->instance.size(); ++id) {
        Atom atom = result->instance.MaterializeAtom(id);
        EXPECT_TRUE(reference.instance.Contains(atom))
            << "unsound atom " << atom.ToString() << " (fault at " << at
            << ")";
      }
    }
  }
}

TEST(FaultInjectionTest, ChaseMemoryFaultStopsGrowthNotSoundness) {
  TgdSet tgds = ParseTgds("A(X) -> B(X). B(X) -> C(X).").value();
  Database db = ParseDatabase("A(a). A(b). A(c).").value();
  ChaseResult reference = Chase(db, tgds).value();
  for (uint64_t at : {uint64_t{1}, uint64_t{2}, uint64_t{4}}) {
    FaultPlan plan;
    plan.memory_at_charge = at;
    FaultInjector injector(plan);
    ResourceGovernor governor;
    governor.set_fault_injector(&injector);
    ChaseOptions options;
    options.governor = &governor;
    auto result = Chase(db, tgds, options);
    ASSERT_TRUE(result.ok());
    // The chase batches byte charges (one flush per growing tgd turn):
    // this workload grows in exactly two turns, so charges 1 and 2 are
    // reached deterministically while higher indices never fire.
    if (at <= 2) {
      ASSERT_TRUE(injector.fired());
    }
    if (injector.fired()) {
      EXPECT_FALSE(result->complete);
      EXPECT_EQ(result->interrupt.code(), StatusCode::kResourceExhausted);
    } else {
      EXPECT_TRUE(result->complete);
      EXPECT_EQ(result->instance.size(), reference.instance.size());
    }
    for (AtomId id = 0; id < result->instance.size(); ++id) {
      EXPECT_TRUE(reference.instance.Contains(result->instance.view(id)));
    }
  }
}

// ---------------------------------------------------------------------------
// XRewrite under injected trips: either the normal rewriting (fault never
// reached) or the governor's trip status — never a silently truncated UCQ
// passed off as complete.
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, XRewriteReturnsTripStatusOrFullRewriting) {
  Schema schema = S({{"Edge", 2}, {"Conn", 2}});
  TgdSet tgds = ParseTgds("Edge(X,Y) -> Conn(X,Y).").value();
  ConjunctiveQuery q =
      ParseQuery("Q(X) :- Conn(X,Y), Conn(Y,Z), Conn(Z,W)").value();
  UnionOfCQs reference = XRewrite(schema, tgds, q).value();

  for (StatusCode injected :
       {StatusCode::kDeadlineExceeded, StatusCode::kCancelled}) {
    for (uint64_t at : kCheckPoints) {
      FaultPlan plan;
      (injected == StatusCode::kDeadlineExceeded ? plan.deadline_at_check
                                                 : plan.cancel_at_check) = at;
      FaultInjector injector(plan);
      ResourceGovernor governor;
      governor.set_fault_injector(&injector);
      XRewriteOptions options;
      options.governor = &governor;
      auto result = XRewrite(schema, tgds, q, options);
      if (result.ok()) {
        EXPECT_EQ(result->size(), reference.size())
            << "a fault mid-enumeration must not yield a shorter UCQ";
      } else {
        EXPECT_TRUE(injector.fired());
        EXPECT_EQ(result.status().code(), injected)
            << result.status().ToString();
        EXPECT_FALSE(result.status().message().empty());
      }
    }
  }
}

TEST(FaultInjectionTest, XRewriteMemoryFaultSurfacesAsResourceExhausted) {
  Schema schema = S({{"Edge", 2}, {"Conn", 2}});
  TgdSet tgds = ParseTgds("Edge(X,Y) -> Conn(X,Y).").value();
  ConjunctiveQuery q = ParseQuery("Q(X) :- Conn(X,Y), Conn(Y,Z)").value();
  FaultPlan plan;
  plan.memory_at_charge = 1;  // the very first disjunct charge fails
  FaultInjector injector(plan);
  ResourceGovernor governor;
  governor.set_fault_injector(&injector);
  XRewriteOptions options;
  options.governor = &governor;
  auto result = XRewrite(schema, tgds, q, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// Subsumption pruning on a guarded recursive ontology: every candidate is
// compared with every earlier disjunct, so most governor checks fall inside
// a pruning scan. A trip there must end the run at once: the scanned
// candidate is left unresolved (its step is counted, but it is neither
// deduplicated, pruned nor admitted), and what was reported so far is a
// prefix of the unfaulted enumeration.
TEST(FaultInjectionTest, XRewriteTripInsidePruningScanEndsTheRun) {
  Schema schema = S({{"R", 2}, {"P", 1}});
  TgdSet tgds = ParseTgds("R(X,Y), P(Y) -> P(X).").value();
  ConjunctiveQuery q = ParseQuery("Q() :- P(c)").value();
  XRewriteOptions options;
  options.prune_subsumed = true;
  options.max_queries = 12;
  auto enumerate = [&](ResourceGovernor* governor, XRewriteStats* stats,
                       std::vector<std::string>* reported) {
    XRewriteOptions governed = options;
    governed.governor = governor;
    return EnumerateRewritings(
        schema, tgds, q, governed,
        [reported](const ConjunctiveQuery& disjunct) {
          reported->push_back(disjunct.ToString());
          return true;
        },
        stats);
  };
  ResourceGovernor clean_governor;
  std::vector<std::string> clean;
  ASSERT_TRUE(enumerate(&clean_governor, nullptr, &clean).ok());
  const uint64_t clean_checks = clean_governor.counters().checks;
  ASSERT_GT(clean.size(), 3u);

  uint64_t ended_inside_scan = 0;
  for (uint64_t at = 1; at <= clean_checks; ++at) {
    FaultPlan plan;
    plan.cancel_at_check = at;
    FaultInjector injector(plan);
    ResourceGovernor governor;
    governor.set_fault_injector(&injector);
    XRewriteStats stats;
    std::vector<std::string> reported;
    auto outcome = enumerate(&governor, &stats, &reported);
    const std::string context = "cancel at check " + std::to_string(at);
    ASSERT_TRUE(outcome.ok()) << context;
    EXPECT_EQ(*outcome, RewriteEnumeration::kBudgetExhausted) << context;
    EXPECT_TRUE(injector.fired()) << context;
    EXPECT_EQ(governor.TripStatus().code(), StatusCode::kCancelled)
        << context;
    EXPECT_EQ(governor.counters().checks, at)
        << context << ": the run went on probing after the trip";
    ASSERT_LE(reported.size(), clean.size()) << context;
    EXPECT_TRUE(std::equal(reported.begin(), reported.end(), clean.begin()))
        << context << ": reported disjuncts diverge from the clean run";
    // The start query is admitted without a step; every other admission,
    // dedup hit and prune resolves exactly one step.
    const size_t steps = stats.rewriting_steps + stats.factorization_steps;
    const size_t resolved = stats.dedup_hits + stats.subsumption_prunes +
                            stats.queries_generated - 1;
    ASSERT_LE(steps - resolved, 1u) << context;
    ended_inside_scan += steps - resolved;
  }
  // Every scan after the first few disjuncts runs more searches than the
  // step that produced its candidate, so most trips land inside one.
  EXPECT_GT(ended_inside_scan * 2, clean_checks);
}

// ---------------------------------------------------------------------------
// Eval under injected trips: OK with the exact answers, or a governor
// code — never OK with a wrong answer set.
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, EvalReturnsExactAnswersOrTripStatus) {
  Schema schema = S({{"Professor", 1}, {"Teaches", 2}});
  Omq omq{schema,
          ParseTgds("Professor(X) -> Faculty(X). "
                    "Teaches(X,C) -> Faculty(X).")
              .value(),
          ParseQuery("Q(X) :- Faculty(X)").value()};
  Database db =
      ParseDatabase("Professor(turing). Teaches(hopper, prog).").value();
  auto reference = EvalAll(omq, db);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->size(), 2u);

  for (StatusCode injected :
       {StatusCode::kDeadlineExceeded, StatusCode::kCancelled}) {
    for (uint64_t at : kCheckPoints) {
      FaultPlan plan;
      (injected == StatusCode::kDeadlineExceeded ? plan.deadline_at_check
                                                 : plan.cancel_at_check) = at;
      FaultInjector injector(plan);
      ResourceGovernor governor;
      governor.set_fault_injector(&injector);
      EvalOptions options;
      options.governor = &governor;
      EngineStats stats;
      auto result = EvalAll(omq, db, options, &stats);
      if (result.ok()) {
        EXPECT_EQ(*result, *reference)
            << "a faulted OK run must carry the exact answers";
      } else {
        EXPECT_TRUE(injector.fired());
        EXPECT_EQ(result.status().code(), injected);
        // Stats are not torn: the governor section reflects the trip.
        EXPECT_TRUE(stats.governor.any_trip());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Containment chaos: the full engine under every fault kind. The
// verdict-consistency invariant is the heart of the suite.
// ---------------------------------------------------------------------------

struct ContainmentWorkload {
  const char* name;
  UcqOmq q1;
  UcqOmq q2;
  ContainmentOutcome expected;  // unfaulted verdict
};

std::vector<ContainmentWorkload> Workloads() {
  Schema schema = S({{"Edge", 2}, {"Conn", 2}});
  TgdSet sigma = ParseTgds("Edge(X,Y) -> Conn(X,Y).").value();
  auto chain3 =
      ParseQuery("Q(X) :- Conn(X,Y), Conn(Y,Z), Conn(Z,W)").value();
  auto chain1 = ParseQuery("Q(X) :- Conn(X,Y)").value();
  std::vector<ContainmentWorkload> workloads;
  workloads.push_back({"contained",
                       UcqOmq{schema, sigma, UnionOfCQs{{chain3}}},
                       UcqOmq{schema, sigma, UnionOfCQs{{chain1}}},
                       ContainmentOutcome::kContained});
  workloads.push_back({"refuted",
                       UcqOmq{schema, sigma, UnionOfCQs{{chain1}}},
                       UcqOmq{schema, sigma, UnionOfCQs{{chain3}}},
                       ContainmentOutcome::kNotContained});
  return workloads;
}

/// Checks the universal chaos invariants on one faulted containment run.
void ExpectSoundUnderFault(const ContainmentWorkload& workload,
                           const Result<ContainmentResult>& result,
                           const FaultInjector& injector,
                           const std::string& context) {
  if (!result.ok()) {
    EXPECT_TRUE(IsGovernorCode(result.status().code()))
        << context << ": unexpected error " << result.status().ToString();
    EXPECT_FALSE(result.status().message().empty()) << context;
    return;
  }
  if (result->outcome == ContainmentOutcome::kUnknown) {
    EXPECT_FALSE(result->detail.empty()) << context;
    return;
  }
  // A definite verdict must match the unfaulted one — a fault may remove
  // information but never invent a certificate.
  EXPECT_EQ(result->outcome, workload.expected)
      << context << " (fault fired: " << injector.fired()
      << "): wrong definite verdict";
}

TEST(ContainmentChaosTest, GovernorFaultsNeverFlipTheVerdict) {
  for (const ContainmentWorkload& workload : Workloads()) {
    // Sanity: the unfaulted run has the expected definite verdict.
    {
      auto clean = CheckUcqOmqContainment(workload.q1, workload.q2);
      ASSERT_TRUE(clean.ok()) << clean.status().ToString();
      ASSERT_EQ(clean->outcome, workload.expected) << workload.name;
    }
    for (StatusCode injected :
         {StatusCode::kDeadlineExceeded, StatusCode::kCancelled}) {
      for (uint64_t at : kCheckPoints) {
        FaultPlan plan;
        plan.seed = at;
        (injected == StatusCode::kDeadlineExceeded
             ? plan.deadline_at_check
             : plan.cancel_at_check) = at;
        FaultInjector injector(plan);
        ResourceGovernor governor;
        governor.set_fault_injector(&injector);
        ContainmentOptions options;
        options.governor = &governor;
        auto result =
            CheckUcqOmqContainment(workload.q1, workload.q2, options);
        ExpectSoundUnderFault(
            workload, result, injector,
            std::string(workload.name) + " code=" +
                StatusCodeToString(injected) + " at=" + std::to_string(at));
      }
    }
  }
}

TEST(ContainmentChaosTest, TripsInsidePruningScansNeverFlipTheVerdict) {
  // Guarded and recursive on the left: the rewriting of P(c) is the
  // infinite chain R(c,y1),...,R(yn-1,yn),P(yn), and the engine's default
  // subsumption pruning scans every earlier disjunct per candidate. The
  // right-hand side covers chains of length up to 2, so the length-3
  // chain refutes. Sweeps a cancellation over every check of the clean
  // run; two in three of them fall inside a pruning scan.
  Schema schema = S({{"R", 2}, {"P", 1}});
  TgdSet sigma = ParseTgds("R(X,Y), P(Y) -> P(X).").value();
  ContainmentWorkload workload{
      "guarded_refuted",
      UcqOmq{schema, sigma, UnionOfCQs{{ParseQuery("Q() :- P(c)").value()}}},
      UcqOmq{schema, TgdSet{},
             UnionOfCQs{{ParseQuery("Q() :- P(c)").value(),
                         ParseQuery("Q() :- R(c,Y), P(Y)").value(),
                         ParseQuery("Q() :- R(c,Y), R(Y,Z), P(Z)").value()}}},
      ContainmentOutcome::kNotContained};
  uint64_t clean_checks = 0;
  {
    ResourceGovernor governor;
    ContainmentOptions options;
    options.governor = &governor;
    auto clean = CheckUcqOmqContainment(workload.q1, workload.q2, options);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ASSERT_EQ(clean->outcome, workload.expected);
    clean_checks = governor.counters().checks;
  }
  for (uint64_t at = 1; at <= clean_checks; ++at) {
    FaultPlan plan;
    plan.cancel_at_check = at;
    FaultInjector injector(plan);
    ResourceGovernor governor;
    governor.set_fault_injector(&injector);
    ContainmentOptions options;
    options.governor = &governor;
    auto result = CheckUcqOmqContainment(workload.q1, workload.q2, options);
    ExpectSoundUnderFault(workload, result, injector,
                          "cancel at check " + std::to_string(at));
  }
}

TEST(ContainmentChaosTest, EnumerationTripLandsOnTheRequestGovernor) {
  // The contained workload under a cancellation swept over every check of
  // its clean run. A trip while the RHS is prepared fails the request; any
  // later one, inside the LHS enumeration or an RHS check, trips the
  // request's own governor and the UNKNOWN detail says so.
  ContainmentWorkload workload = Workloads()[0];
  uint64_t clean_checks = 0;
  {
    ResourceGovernor governor;
    ContainmentOptions options;
    options.governor = &governor;
    auto clean = CheckUcqOmqContainment(workload.q1, workload.q2, options);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ASSERT_EQ(clean->outcome, workload.expected);
    clean_checks = governor.counters().checks;
  }
  uint64_t unknowns = 0;
  for (uint64_t at = 1; at <= clean_checks; ++at) {
    const std::string context = "cancel at check " + std::to_string(at);
    FaultPlan plan;
    plan.cancel_at_check = at;
    FaultInjector injector(plan);
    ResourceGovernor governor;
    governor.set_fault_injector(&injector);
    ContainmentOptions options;
    options.governor = &governor;
    auto result = CheckUcqOmqContainment(workload.q1, workload.q2, options);
    EXPECT_TRUE(injector.fired()) << context;
    EXPECT_EQ(governor.TripStatus().code(), StatusCode::kCancelled)
        << context;
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << context;
      continue;
    }
    ++unknowns;
    EXPECT_EQ(result->outcome, ContainmentOutcome::kUnknown) << context;
    EXPECT_EQ(result->detail.rfind("request governor tripped: ", 0), 0u)
        << context << ": " << result->detail;
    EXPECT_EQ(result->stats.governor.cancel_trips, 1u) << context;
  }
  EXPECT_GT(unknowns, 0u);
}

TEST(ContainmentChaosTest, MemoryFaultsNeverFlipTheVerdict) {
  for (const ContainmentWorkload& workload : Workloads()) {
    for (uint64_t at : {uint64_t{1}, uint64_t{2}, uint64_t{5}}) {
      FaultPlan plan;
      plan.memory_at_charge = at;
      FaultInjector injector(plan);
      ResourceGovernor governor;
      governor.set_fault_injector(&injector);
      ContainmentOptions options;
      options.governor = &governor;
      auto result =
          CheckUcqOmqContainment(workload.q1, workload.q2, options);
      ExpectSoundUnderFault(workload, result, injector,
                            std::string(workload.name) +
                                " memory at=" + std::to_string(at));
    }
  }
}

TEST(ContainmentChaosTest, DroppedCacheInsertsAreInvisible) {
  OmqCache cache;
  for (uint64_t at : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
    FaultPlan plan;
    plan.fail_insert_at = at;
    FaultInjector injector(plan);
    cache.set_fault_injector(&injector);
    for (const ContainmentWorkload& workload : Workloads()) {
      ContainmentOptions options;
      options.cache = &cache;
      auto result =
          CheckUcqOmqContainment(workload.q1, workload.q2, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->outcome, workload.expected)
          << workload.name << ": a dropped cache insert changed semantics";
    }
    cache.set_fault_injector(nullptr);
  }
}

TEST(ContainmentChaosTest, RealCancellationFromAnotherThread) {
  // Not an injected fault: a live CancellationToken flipped mid-run from
  // outside, racing the engine. The run must come back well-formed with a
  // sound verdict no matter where the cancellation lands.
  for (const ContainmentWorkload& workload : Workloads()) {
    ResourceGovernor governor;
    std::atomic<bool> done{false};
    std::thread canceller([&governor, &done] {
      while (!done.load(std::memory_order_acquire)) {
        governor.Cancel();
        std::this_thread::yield();
      }
    });
    ContainmentOptions options;
    options.governor = &governor;
    auto result = CheckUcqOmqContainment(workload.q1, workload.q2, options);
    done.store(true, std::memory_order_release);
    canceller.join();
    FaultInjector unused{FaultPlan{}};
    ExpectSoundUnderFault(workload, result, unused,
                          std::string("live-cancel ") + workload.name);
  }
}

TEST(ContainmentChaosTest, ExpiredDeadlineYieldsGovernedUnknown) {
  // A real (non-injected) deadline already in the past: the engine must
  // degrade to kUnknown (or a trip error from RHS setup) and say why.
  ContainmentWorkload workload = Workloads()[0];  // the contained pair
  ResourceGovernor governor;
  governor.set_deadline_after(std::chrono::nanoseconds(0));
  ContainmentOptions options;
  options.governor = &governor;
  auto result = CheckUcqOmqContainment(workload.q1, workload.q2, options);
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    return;
  }
  if (result->outcome == ContainmentOutcome::kUnknown) {
    EXPECT_NE(result->detail.find("governor"), std::string::npos)
        << result->detail;
  } else {
    // The tiny workload can win the race against the first clock sample —
    // then it must have produced the true verdict.
    EXPECT_EQ(result->outcome, workload.expected);
  }
}

}  // namespace
}  // namespace omqc
