// OmqServer: containment-as-a-service over the wire protocol.
//
// Request path (see DESIGN.md "Server pipeline"):
//
//   session thread ──► tenant admit ──► worker pool
//   (read + parse)     (concurrency      (execute,
//                       quota)            respond)
//
// Each connection gets a session thread that reads frames, answers
// ping/stats/shutdown inline, parses eval/contain/classify programs, and
// admits each request to its tenant (tenant.h). An admitted request goes
// straight to the shared FIFO ThreadPool; one over its tenant's
// concurrency quota parks in the registry until a completion releases it.
// Repeated compilations are shared through the OmqCache, not by holding
// requests back.
//
// Resource governance: every request executes under a fresh governor
// child of its tenant's governor (tenant.h), itself a child of the
// server-wide governor. A request trip (deadline/memory) answers that
// request with the trip code; sibling requests and other tenants are
// untouched.
//
// Responses may leave a connection out of order (requests execute
// concurrently); clients correlate by request_id. All writes to one
// connection are serialized by a per-connection mutex.

#ifndef OMQC_SERVER_SERVER_H_
#define OMQC_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/governor.h"
#include "base/socket.h"
#include "base/thread_pool.h"
#include "cache/persist.h"
#include "chase/chase.h"
#include "server/tenant.h"
#include "server/wire.h"

namespace omqc {

struct ServerConfig {
  /// Bind address for ListenAndStart ("" = INADDR_ANY).
  std::string listen_address = "127.0.0.1";
  /// Worker pool size (0 = hardware concurrency).
  size_t worker_threads = 0;
  /// Shared compilation cache (0 capacity = caching off).
  size_t cache_capacity = 1024;
  size_t cache_shards = 8;
  /// Persistent artifact store directory ("" = memory only). The server
  /// warm-starts the cache from it at boot and flushes new artifacts to
  /// it on drain; an unopenable directory degrades to memory-only with a
  /// warning on stderr (the server still comes up).
  std::string cache_dir;
  /// Deadline for requests that carry none (0 = tenant default, then
  /// unlimited).
  uint64_t default_deadline_ms = 0;
  /// Server-wide memory budget across all tenants (0 = none).
  size_t server_memory_budget_bytes = 0;
  /// Per-tenant limits.
  TenantQuota tenant_quota;
  /// Intra-request parallelism for containment checks. Kept at 1 by
  /// default: the server parallelizes across requests via the pool.
  size_t contain_threads = 1;
  /// Chase strategy for evaluation paths.
  ChaseStrategy chase = ChaseStrategy::kSemiNaive;
};

/// Server-level tallies (beyond cache/tenant counters).
struct ServerCounters {
  uint64_t connections = 0;
  uint64_t requests = 0;       ///< frames decoded into requests
  uint64_t responses_ok = 0;
  uint64_t responses_error = 0;
  uint64_t pings = 0;
  uint64_t stats_requests = 0;
  uint64_t malformed_frames = 0;
};

class OmqServer {
 public:
  explicit OmqServer(ServerConfig config);

  OmqServer(const OmqServer&) = delete;
  OmqServer& operator=(const OmqServer&) = delete;

  /// Equivalent to Shutdown().
  ~OmqServer();

  /// Starts the worker pool without a network listener — for in-process
  /// connections only.
  void Start();

  /// Start() plus a TCP listener on `port` (0 = ephemeral). Returns the
  /// bound port.
  Result<uint16_t> ListenAndStart(uint16_t port);

  /// Opens an in-process connection (AF_UNIX socketpair): returns the
  /// client end and spawns a session thread on the server end. Works with
  /// or without a listener.
  Result<OwnedFd> ConnectInProcess();

  /// Graceful stop: refuse new work, drain the pool, unblock and join
  /// every session, drain the pool again, then flush the cache.
  /// Idempotent.
  void Shutdown();

  /// Marks the server as asked to shut down (kShutdown request or a
  /// signal) and wakes WaitForShutdownRequest. Does not stop anything
  /// by itself.
  void RequestShutdown();

  /// Blocks until RequestShutdown or the timeout; true when requested.
  bool WaitForShutdownRequest(std::chrono::milliseconds timeout);

  /// The full metrics document served by kStats: server counters, cache
  /// stats, server governor, per-tenant sections.
  std::string StatsJson() const;

  const ServerConfig& config() const { return config_; }
  ArtifactStore* cache() { return cache_.get(); }
  ResourceGovernor* governor() { return &governor_; }

  /// Point-in-time per-tenant view (tenant.h TenantSnapshot).
  std::map<std::string, TenantRegistry::TenantSnapshot> TenantSnapshots()
      const {
    return tenants_.Snapshot();
  }
  ServerCounters counters() const;

 private:
  struct Connection;
  struct PendingRequest;

  void AcceptLoop();
  void SessionLoop(std::shared_ptr<Connection> conn);
  /// Handles one decoded request on the session thread; submits
  /// eval/contain/classify, answers everything else inline.
  void HandleRequest(const std::shared_ptr<Connection>& conn,
                     WireRequest&& request);
  /// Submits each admitted request (payload: PendingRequest) to the
  /// pool. A request whose tenant governor is tripped, or that arrives
  /// once the server is stopping, is answered inline instead and its
  /// lease settled; whatever that settlement releases from the tenant's
  /// concurrency queue joins the worklist, so a cascade of refusals stays
  /// iterative. Runs on session threads and on pool workers.
  void Dispatch(std::vector<TenantRegistry::Resumed> admitted);
  /// Executes one request on a pool worker, sends its response and
  /// settles its lease.
  void Execute(const std::shared_ptr<PendingRequest>& pending);
  /// Sends `response` on `conn` (any thread; serialized per connection).
  void SendResponse(const std::shared_ptr<Connection>& conn,
                    WireResponse&& response);

  ServerConfig config_;
  ResourceGovernor governor_;  ///< server-wide root governor
  std::unique_ptr<ArtifactStore> cache_;
  TenantRegistry tenants_;
  std::unique_ptr<ThreadPool> pool_;

  OwnedFd listen_fd_;
  std::thread accept_thread_;

  mutable std::mutex sessions_mu_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> session_threads_;

  mutable std::mutex counters_mu_;
  ServerCounters counters_;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  std::once_flag start_once_;
  std::atomic<bool> stopping_{false};
  bool shut_down_ = false;  ///< Shutdown() completed (under shutdown_mu_)
};

}  // namespace omqc

#endif  // OMQC_SERVER_SERVER_H_
