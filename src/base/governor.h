// ResourceGovernor: one object that bounds an entire request end-to-end.
//
// A governor carries three independent limits —
//   * a wall-clock deadline,
//   * a cooperative cancellation token, and
//   * a byte-accounted memory budget —
// and is threaded by pointer through every layer's options struct
// (ChaseOptions, XRewriteOptions, HomomorphismOptions, EvalOptions,
// ContainmentOptions). A null governor pointer means
// "unbounded" everywhere and costs nothing.
//
// Check-site contract (see DESIGN.md "Governor check-site placement"):
// inner loops call Check() at a stride matched to their per-iteration
// cost; allocation-heavy layers additionally call ChargeBytes for large
// materializations (chase atoms, rewriting disjuncts). Check() is built
// to be cheap enough for hot loops: one relaxed atomic load when not
// tripped, with the clock sampled only every kClockStride-th check.
//
// Trips are *sticky*: once any limit is exceeded the governor latches the
// trip status and every subsequent Check()/ChargeBytes from any thread
// returns it, so every later probe of the request winds down after the
// first observation. Layers translate a trip into their local tri-state
// degradation (kExhausted / truncated / kUnknown) — a trip may remove
// information but never flips a definite answer.
//
// Parent/child linkage: a child governor shares the parent's limits by
// consultation (the child's Check also checks the parent) but owns its own
// token, so cancelling a child never cancels its parent or siblings. The
// server (src/server) chains server → tenant → request governors; the
// engine runs under whichever governor its caller passed and never adds
// a level of its own.
// Counters always accumulate at the root, so EngineStats reflects every
// check made anywhere in the chain.
// Byte charges accumulate at *every* level of the chain, and each level's
// memory budget bounds its own subtree total — this is what lets the
// server layer per-tenant quotas between a request's governor and the
// server-wide one: a tenant quota trips on the tenant's own in-flight
// bytes, not on the server-wide total.

#ifndef OMQC_BASE_GOVERNOR_H_
#define OMQC_BASE_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "base/status.h"

namespace omqc {

class FaultInjector;

/// A thread-safe cancellation flag. Cancellation is cooperative: setting
/// the token does not interrupt anything by itself; the running request
/// observes it at its next governor check and unwinds with partial
/// results.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Governor trip/activity counters, exported into EngineStats. All fields
/// are monotone snapshots of one shared source, so Merge takes the
/// element-wise max (summing would double-count the same governor seen
/// through several merged EngineStats, e.g. a per-candidate RHS check's
/// stats folded into the request's).
struct GovernorCounters {
  uint64_t checks = 0;
  uint64_t deadline_trips = 0;
  uint64_t cancel_trips = 0;
  uint64_t memory_trips = 0;

  void Merge(const GovernorCounters& other);
  bool any_trip() const {
    return deadline_trips + cancel_trips + memory_trips > 0;
  }
};

/// See file comment. All methods are thread-safe.
class ResourceGovernor {
 public:
  using Clock = std::chrono::steady_clock;

  /// An unbounded root governor: no deadline, no memory budget, its own
  /// token. Limits are attached with the setters below before the request
  /// starts; setting them mid-flight is not supported (Cancel is).
  ResourceGovernor() = default;

  /// A child governor layered over `parent` (may be null, yielding a
  /// root). The child has its own token — Cancel() on the child does not
  /// touch the parent — but consults the parent's deadline, token, and
  /// memory budget on every check, and forwards counters and byte charges
  /// to the root.
  explicit ResourceGovernor(ResourceGovernor* parent) : parent_(parent) {}

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// Sets the deadline to now + `budget`.
  void set_deadline_after(std::chrono::nanoseconds budget) {
    deadline_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            (Clock::now() + budget).time_since_epoch())
            .count(),
        std::memory_order_release);
  }

  /// Caps ChargeBytes accounting at `bytes` (0 = unlimited).
  void set_memory_budget(size_t bytes) {
    memory_budget_.store(bytes, std::memory_order_release);
  }

  /// Cancels this governor's own token.
  void Cancel() { token_.Cancel(); }
  CancellationToken& token() { return token_; }

  /// Hot-path probe. Returns OK until a limit is exceeded, then the trip
  /// status (sticky, identical from every thread). Cost when untripped:
  /// one relaxed load plus, every kClockStride-th call, a clock read.
  Status Check();

  /// Accounts `bytes` at this governor and every ancestor, then checks
  /// each level's budget against that level's own total. Returns the trip
  /// status if any budget is or becomes exceeded. The caller keeps
  /// whatever it already materialized — the charge failing means "stop
  /// growing", not "roll back".
  Status ChargeBytes(size_t bytes);

  /// Returns previously charged bytes (e.g. a scratch structure freed
  /// mid-request) at this governor and every ancestor, saturating at zero
  /// per level (a request that tripped mid-charge may release more than
  /// was accounted; the chain must never wrap). Never un-trips a tripped
  /// governor.
  void ReleaseBytes(size_t bytes);

  /// The sticky trip status: OK if not tripped.
  Status TripStatus() const;
  bool tripped() const {
    return trip_code_.load(std::memory_order_acquire) !=
           static_cast<int>(StatusCode::kOk);
  }

  /// Bytes currently accounted at this governor's root (the whole tree).
  size_t charged_bytes() const {
    return root()->charged_bytes_.load(std::memory_order_relaxed);
  }

  /// Bytes currently accounted at *this* level (this governor's subtree
  /// only). Equal to charged_bytes() for a root. The server uses this to
  /// return a finished request's residual charges to the tenant chain.
  size_t local_charged_bytes() const {
    return charged_bytes_.load(std::memory_order_relaxed);
  }

  /// Snapshot of the root's counters.
  GovernorCounters counters() const;

  /// Test-only: installs a fault injector consulted on every check and
  /// charge. Pass nullptr to detach. The injector must outlive its use.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
    // Sticky hint at the root so ungoverned-by-injector runs skip the
    // chain walk entirely; detaching leaves the hint set (tests only).
    if (injector != nullptr) {
      root()->injector_hint_.store(true, std::memory_order_release);
    }
  }

  /// How often Check() samples the wall clock (every Nth call).
  static constexpr uint64_t kClockStride = 16;

 private:
  const ResourceGovernor* root() const {
    const ResourceGovernor* g = this;
    while (g->parent_ != nullptr) g = g->parent_;
    return g;
  }
  ResourceGovernor* root() {
    ResourceGovernor* g = this;
    while (g->parent_ != nullptr) g = g->parent_;
    return g;
  }

  /// Latches `code` as the sticky trip (first writer wins) and bumps the
  /// matching root counter. Returns the effective trip status.
  Status Trip(StatusCode code, const char* detail);

  /// Latches an *inherited* trip (first observed on an ancestor, which
  /// already counted it) without bumping counters.
  Status Latch(StatusCode code, const char* detail);

  /// First fault injector installed on this governor or an ancestor.
  FaultInjector* InjectorInChain() const;

  ResourceGovernor* parent_ = nullptr;
  CancellationToken token_;

  /// Deadline as steady-clock nanoseconds since epoch; 0 = none.
  std::atomic<int64_t> deadline_ns_{0};
  /// Memory cap in bytes; 0 = unlimited. Charges accumulate at every
  /// level of the chain; each budget bounds its own subtree.
  std::atomic<size_t> memory_budget_{0};
  std::atomic<size_t> charged_bytes_{0};

  /// Sticky trip state, stored as int(StatusCode). kOk = not tripped.
  std::atomic<int> trip_code_{static_cast<int>(StatusCode::kOk)};
  /// Static-lifetime detail string for the latched trip (may briefly lag
  /// trip_code_; readers fall back to a canonical message).
  std::atomic<const char*> trip_detail_{nullptr};

  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> charges_{0};
  std::atomic<uint64_t> deadline_trips_{0};
  std::atomic<uint64_t> cancel_trips_{0};
  std::atomic<uint64_t> memory_trips_{0};

  std::atomic<FaultInjector*> fault_injector_{nullptr};
  /// Root-level "an injector was attached somewhere in this tree" hint;
  /// lets the hot path skip InjectorInChain() in production runs.
  std::atomic<bool> injector_hint_{false};
};

/// Maps a budget-style degradation to the governor's trip status when the
/// governor (possibly null) actually tripped, else returns `fallback`.
/// Lets call sites report "deadline exceeded" instead of a generic
/// "budget exhausted" when the governor was the cause.
Status TripStatusOr(const ResourceGovernor* governor, Status fallback);

}  // namespace omqc

#endif  // OMQC_BASE_GOVERNOR_H_
