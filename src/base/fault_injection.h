// Deterministic fault injection for the robustness test harness.
//
// A FaultPlan is a declarative, seedable description of *when* a fault
// fires ("trip the deadline at the Nth governor check", "fail the Kth
// cache insert", "stall worker i"); a FaultInjector compiles the plan into
// thread-safe hooks that the production code consults at its existing
// check sites. The hooks are test-only in the sense that nothing installs
// an injector outside tests — the consult points themselves are compiled
// in unconditionally and cost one relaxed atomic load when no injector is
// installed.
//
// Determinism: every trigger is expressed in *logical* event counts
// (governor checks, byte charges, cache inserts), never in wall-clock
// time, so a single-threaded replay of the same workload fires the same
// fault at the same point. Under worker threads the global event order
// may vary, but whether the fault fires (given enough events) and what it
// injects do not — which is exactly what the chaos suite
// (tests/fault_injection_test.cc) needs to assert outcome soundness.

#ifndef OMQC_BASE_FAULT_INJECTION_H_
#define OMQC_BASE_FAULT_INJECTION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "base/status.h"

namespace omqc {

/// A declarative fault schedule. Zero/negative values mean "never".
/// All indices are 1-based logical event counts.
struct FaultPlan {
  /// Free-form seed recorded with the plan, so randomized chaos sweeps can
  /// reproduce a failing plan from its log line.
  uint64_t seed = 0;
  /// Trip the governor with kDeadlineExceeded at this governor check.
  uint64_t deadline_at_check = 0;
  /// Trip the governor with kCancelled at this governor check.
  uint64_t cancel_at_check = 0;
  /// Trip the governor with kResourceExhausted (memory) at this byte
  /// charge (ResourceGovernor::ChargeBytes call).
  uint64_t memory_at_charge = 0;
  /// Drop this cache insert (OmqCache::PutErased call) on the floor.
  uint64_t fail_insert_at = 0;
  /// Stall the ThreadPool worker with this index (-1 = none) for
  /// `stall_millis` at the start of each task it picks up.
  int stall_worker = -1;
  uint64_t stall_millis = 0;
};

class SplitMix64;

/// Draws a randomized plan for chaos sweeps from `rng`: at most one
/// governor-level fault (deadline trip, cancellation, or memory-charge
/// failure) plus an independent chance of a dropped cache insert. Worker
/// stalls are left to dedicated tests. The drawn plan records
/// the rng state it was derived from in `seed` so a failing sweep
/// iteration reproduces from its log line.
FaultPlan RandomFaultPlan(SplitMix64& rng);

/// Compiles a FaultPlan into hooks. All hooks are thread-safe; event
/// counters are global across threads (atomic), so indices refer to the
/// interleaved event order. One injector instance serves one faulted run.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Consulted by ResourceGovernor::Check with the 1-based check index.
  /// Returns the StatusCode to trip with, or kOk for "no fault here".
  StatusCode OnGovernorCheck(uint64_t check_index) {
    if (plan_.deadline_at_check != 0 &&
        check_index == plan_.deadline_at_check) {
      MarkFired();
      return StatusCode::kDeadlineExceeded;
    }
    if (plan_.cancel_at_check != 0 && check_index == plan_.cancel_at_check) {
      MarkFired();
      return StatusCode::kCancelled;
    }
    return StatusCode::kOk;
  }

  /// Consulted by ResourceGovernor::ChargeBytes with the 1-based charge
  /// index. Returns true when this charge must fail as a memory trip.
  bool OnMemoryCharge(uint64_t charge_index) {
    if (plan_.memory_at_charge != 0 &&
        charge_index == plan_.memory_at_charge) {
      MarkFired();
      return true;
    }
    return false;
  }

  /// Consulted by OmqCache::PutErased. Returns true when this insert must
  /// be dropped (the caller keeps its freshly computed value; only the
  /// cache forgets it — indistinguishable from an immediate eviction).
  bool OnCacheInsert() {
    uint64_t n = inserts_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (plan_.fail_insert_at != 0 && n == plan_.fail_insert_at) {
      MarkFired();
      return true;
    }
    return false;
  }

  /// Consulted by ThreadPool workers at task start (via the global task
  /// hook installed by the test). Sleeps when this worker is the stall
  /// target. Implemented out of line to keep <thread> out of this header.
  void OnWorkerTask(size_t worker_index);

  /// True once any fault of the plan has been delivered. The chaos suite
  /// uses this to tell "the run genuinely finished before the fault" from
  /// "the fault fired and the engine absorbed it".
  bool fired() const { return fired_.load(std::memory_order_acquire); }

  const FaultPlan& plan() const { return plan_; }

 private:
  void MarkFired() { fired_.store(true, std::memory_order_release); }

  FaultPlan plan_;
  std::atomic<uint64_t> inserts_{0};
  std::atomic<bool> fired_{false};
};

}  // namespace omqc

#endif  // OMQC_BASE_FAULT_INJECTION_H_
