#include "server/tenant.h"

#include <algorithm>
#include <utility>

namespace omqc {

std::shared_ptr<ResourceGovernor> TenantRegistry::NewGovernor() const {
  auto governor = std::make_shared<ResourceGovernor>(server_governor_);
  if (quota_.memory_quota_bytes > 0) {
    governor->set_memory_budget(quota_.memory_quota_bytes);
  }
  return governor;
}

TenantRegistry::Admission TenantRegistry::AdmitOrQueue(
    const std::string& tenant, std::shared_ptr<void> payload) {
  std::lock_guard<std::mutex> lock(mu_);
  Tenant& t = tenants_[tenant];
  if (t.governor == nullptr) t.governor = NewGovernor();
  ++t.counters.requests;
  if (quota_.max_concurrent > 0 && t.inflight >= quota_.max_concurrent) {
    t.waiting.push_back(std::move(payload));
    ++t.counters.queued_requests;
    t.counters.queue_peak =
        std::max<uint64_t>(t.counters.queue_peak, t.waiting.size());
    return Admission{TenantLease{tenant, nullptr}, /*queued=*/true};
  }
  ++t.inflight;
  return Admission{TenantLease{tenant, t.governor}, /*queued=*/false};
}

std::vector<TenantRegistry::Resumed> TenantRegistry::Complete(
    const TenantLease& lease, size_t residual_bytes, StatusCode code,
    const EngineStats& stats) {
  // Return the finished request's residual charge before taking the
  // registry lock — ReleaseBytes is lock-free and walks up to the server
  // governor on its own.
  if (residual_bytes > 0 && lease.governor != nullptr) {
    lease.governor->ReleaseBytes(residual_bytes);
  }
  std::vector<Resumed> resumed;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(lease.tenant);
  if (it == tenants_.end()) return resumed;
  Tenant& t = it->second;
  if (t.inflight > 0) --t.inflight;
  switch (code) {
    case StatusCode::kOk:
      ++t.counters.completed;
      break;
    case StatusCode::kDeadlineExceeded:
      ++t.counters.failed;
      ++t.counters.deadline_trips;
      break;
    case StatusCode::kCancelled:
      ++t.counters.failed;
      ++t.counters.cancel_trips;
      break;
    case StatusCode::kResourceExhausted:
      ++t.counters.failed;
      ++t.counters.memory_trips;
      break;
    default:
      ++t.counters.failed;
      break;
  }
  t.counters.cache_hits += stats.cache.hits;
  t.counters.cache_misses += stats.cache.misses;
  // A tripped tenant governor is sticky (fail-fast for this tenant) until
  // the tenant drains; then replace it so the tenant recovers. Requests
  // still holding the old governor keep it alive via their lease. Queued
  // requests resume under the replacement (and fail fast on an unreplaced
  // tripped governor via the server's dispatch trip check).
  if (t.inflight == 0 && t.governor != nullptr && t.governor->tripped()) {
    t.governor = NewGovernor();
    ++t.counters.governor_resets;
  }
  // Hand freed capacity to the queue, FIFO. Normally at most one request
  // resumes per completion; the loop also covers quota reconfiguration.
  while (!t.waiting.empty() &&
         (quota_.max_concurrent == 0 || t.inflight < quota_.max_concurrent)) {
    ++t.inflight;
    resumed.push_back(
        Resumed{TenantLease{lease.tenant, t.governor},
                std::move(t.waiting.front())});
    t.waiting.pop_front();
  }
  return resumed;
}

std::vector<std::shared_ptr<void>> TenantRegistry::DrainQueued() {
  std::vector<std::shared_ptr<void>> drained;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, t] : tenants_) {
    (void)name;
    while (!t.waiting.empty()) {
      drained.push_back(std::move(t.waiting.front()));
      t.waiting.pop_front();
      ++t.counters.failed;
      ++t.counters.cancel_trips;
    }
  }
  return drained;
}

std::map<std::string, TenantRegistry::TenantSnapshot>
TenantRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, TenantSnapshot> out;
  for (const auto& [name, t] : tenants_) {
    TenantSnapshot snap;
    snap.counters = t.counters;
    snap.inflight = t.inflight;
    snap.queued = t.waiting.size();
    if (t.governor != nullptr) {
      snap.charged_bytes = t.governor->local_charged_bytes();
      snap.tripped = t.governor->tripped();
    }
    out.emplace(name, snap);
  }
  return out;
}

}  // namespace omqc
