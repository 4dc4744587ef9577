// Per-tenant resource governance for the omqc server.
//
// Governor layering (see DESIGN.md "Server pipeline"):
//
//   server governor  (server-wide memory budget, shutdown cancellation)
//     └─ tenant governor   (per-tenant memory quota; one per tenant)
//          └─ request governor  (per-request deadline / memory budget)
//               └─ engine children (containment worker cancellation, ...)
//
// Byte charges accumulate at every level (base/governor.h), so a tenant
// quota bounds that tenant's in-flight bytes only; trips latch on the
// governor whose limit was exceeded, so a request deadline trip stays on
// the request, a tenant quota trip sticks to the tenant (fail-fast for its
// subsequent requests) and never touches sibling tenants.
//
// A tripped tenant governor is replaced with a fresh child of the server
// governor once the tenant's in-flight requests drain — the tenant is
// throttled, not bricked. Requests still holding the old governor keep it
// alive through shared_ptr.
//
// Concurrency quota: with TenantQuota::max_concurrent > 0, a tenant's
// excess requests are *queued* here (FIFO) instead of tripping anything —
// AdmitOrQueue parks the opaque payload, and each Complete hands freed
// capacity back as Resumed entries the server dispatches. Queued work is
// invisible to the pool until then, so one hot tenant cannot monopolize
// worker slots.

#ifndef OMQC_SERVER_TENANT_H_
#define OMQC_SERVER_TENANT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/governor.h"
#include "core/engine_stats.h"

namespace omqc {

/// Per-tenant limits, applied uniformly to every tenant the server sees.
struct TenantQuota {
  /// Cap on a tenant's in-flight governed bytes (0 = none).
  size_t memory_quota_bytes = 0;
  /// Cap on a tenant's concurrently executing requests (0 = unlimited).
  /// Excess requests *queue* (FIFO per tenant) rather than trip: they are
  /// handed back by Complete() as capacity frees up.
  uint64_t max_concurrent = 0;
};

/// Monotone per-tenant tallies, exported by the STATS endpoint.
struct TenantCounters {
  uint64_t requests = 0;        ///< admitted requests
  uint64_t completed = 0;       ///< responses with StatusCode kOk
  uint64_t failed = 0;          ///< responses with any other code
  uint64_t deadline_trips = 0;  ///< requests ending kDeadlineExceeded
  uint64_t cancel_trips = 0;    ///< requests ending kCancelled
  uint64_t memory_trips = 0;    ///< requests ending kResourceExhausted
  uint64_t cache_hits = 0;      ///< compilation-cache hits attributed here
  uint64_t cache_misses = 0;    ///< compilation-cache misses attributed here
  uint64_t governor_resets = 0;  ///< tripped tenant governors replaced
  uint64_t queued_requests = 0;  ///< deferred by the concurrency quota
  uint64_t queue_peak = 0;       ///< deepest the concurrency queue got
};

/// A lease on a tenant's governor for one request's lifetime. The shared
/// pointer keeps a since-replaced governor alive until the request ends.
struct TenantLease {
  std::string tenant;
  std::shared_ptr<ResourceGovernor> governor;
};

class TenantRegistry {
 public:
  /// `server_governor` (not owned, must outlive the registry) parents
  /// every tenant governor; `quota` applies to each tenant individually.
  TenantRegistry(ResourceGovernor* server_governor, TenantQuota quota)
      : server_governor_(server_governor), quota_(quota) {}

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Outcome of AdmitOrQueue: either a live lease, or `queued` — the
  /// payload was parked under the concurrency quota and will come back
  /// out of a later Complete() (or DrainQueued()) call.
  struct Admission {
    TenantLease lease;  ///< empty governor when queued
    bool queued = false;
  };

  /// Admits one request for `tenant` (created on first sight), or parks
  /// `payload` when the tenant is already running `max_concurrent`
  /// requests. Parked requests count toward `requests`/`queued_requests`
  /// immediately.
  Admission AdmitOrQueue(const std::string& tenant,
                         std::shared_ptr<void> payload);

  /// A request released from the concurrency queue by a completion: its
  /// freshly issued lease plus the payload given to AdmitOrQueue.
  struct Resumed {
    TenantLease lease;
    std::shared_ptr<void> payload;
  };

  /// Completes the request holding `lease`. `residual_bytes` is the
  /// request governor's un-released local charge (returned to the tenant
  /// chain here); `code` is the response status; `stats` the request's
  /// engine counters. Replaces a tripped tenant governor once the tenant
  /// drains, then returns any queued requests the freed capacity now
  /// admits (the caller dispatches them outside this registry's lock).
  std::vector<Resumed> Complete(const TenantLease& lease,
                                size_t residual_bytes, StatusCode code,
                                const EngineStats& stats);

  /// Empties every tenant's concurrency queue (shutdown): the payloads
  /// are returned without leases and tallied as failed/cancelled.
  std::vector<std::shared_ptr<void>> DrainQueued();

  /// Point-in-time view for the STATS endpoint.
  struct TenantSnapshot {
    TenantCounters counters;
    uint64_t inflight = 0;
    uint64_t queued = 0;       ///< current concurrency-queue depth
    size_t charged_bytes = 0;  ///< current tenant-level accounted bytes
    bool tripped = false;      ///< current governor is latched
  };
  std::map<std::string, TenantSnapshot> Snapshot() const;

 private:
  struct Tenant {
    std::shared_ptr<ResourceGovernor> governor;
    uint64_t inflight = 0;
    /// Requests parked by the concurrency quota, FIFO.
    std::deque<std::shared_ptr<void>> waiting;
    TenantCounters counters;
  };

  std::shared_ptr<ResourceGovernor> NewGovernor() const;

  ResourceGovernor* server_governor_;
  TenantQuota quota_;
  mutable std::mutex mu_;
  std::map<std::string, Tenant> tenants_;
};

}  // namespace omqc

#endif  // OMQC_SERVER_TENANT_H_
