// Per-tenant resource governance for the omqc server.
//
// Governor layering (see DESIGN.md "Server pipeline"):
//
//   server governor  (server-wide memory budget, shutdown cancellation)
//     └─ tenant governor   (per-tenant memory quota; one per tenant)
//          └─ request governor  (per-request deadline / memory budget)
//
// The request governor is the one the engine runs under; the engine adds
// no level of its own.
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

#ifndef OMQC_SERVER_TENANT_H_
#define OMQC_SERVER_TENANT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "base/governor.h"
#include "core/engine_stats.h"

namespace omqc {

/// Per-tenant limits, applied uniformly to every tenant the server sees.
struct TenantQuota {
  /// Cap on a tenant's in-flight governed bytes (0 = none).
  size_t memory_quota_bytes = 0;
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

  /// Admits one request for `tenant` (created on first sight) and leases
  /// it the tenant's current governor.
  TenantLease Admit(const std::string& tenant);

  /// Completes the request holding `lease`. `residual_bytes` is the
  /// request governor's un-released local charge (returned to the tenant
  /// chain here); `code` is the response status; `stats` the request's
  /// engine counters. Replaces a tripped tenant governor once the tenant
  /// drains.
  void Complete(const TenantLease& lease, size_t residual_bytes,
                StatusCode code, const EngineStats& stats);

  /// Point-in-time view for the STATS endpoint.
  struct TenantSnapshot {
    TenantCounters counters;
    uint64_t inflight = 0;
    size_t charged_bytes = 0;  ///< current tenant-level accounted bytes
    bool tripped = false;      ///< current governor is latched
  };
  std::map<std::string, TenantSnapshot> Snapshot() const;

 private:
  struct Tenant {
    std::shared_ptr<ResourceGovernor> governor;
    uint64_t inflight = 0;
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
