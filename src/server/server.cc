#include "server/server.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "base/string_util.h"
#include "core/containment.h"
#include "core/eval.h"
#include "core/frontend.h"
#include "core/stats_json.h"
#include "tgd/parser.h"

namespace omqc {

using Clock = std::chrono::steady_clock;

/// One client connection. The session thread owns the read side; the
/// write side is shared with pool workers (out-of-order responses) and
/// serialized by `write_mu`. The fd closes when the last holder — session
/// thread or in-flight request — drops its reference.
struct OmqServer::Connection {
  OwnedFd fd;
  std::mutex write_mu;
  std::atomic<bool> broken{false};
};

/// One admitted eval/contain/classify request between its session thread
/// and its pool worker.
struct OmqServer::PendingRequest {
  WireRequest request;
  Program program;
  Schema schema;
  TenantLease lease;
  std::shared_ptr<Connection> conn;
  Clock::time_point submitted;  ///< handed to the pool
};

namespace {

WireResponse ErrorResponse(uint64_t request_id, const Status& status) {
  WireResponse response;
  response.request_id = request_id;
  response.code = status.code();
  response.message = status.message();
  return response;
}

}  // namespace

OmqServer::OmqServer(ServerConfig config)
    : config_(std::move(config)),
      tenants_(&governor_, config_.tenant_quota) {
  if (config_.server_memory_budget_bytes > 0) {
    governor_.set_memory_budget(config_.server_memory_budget_bytes);
  }
  if (!config_.cache_dir.empty()) {
    auto store = OmqCache::Open(OmqCacheConfig(), config_.cache_dir);
    if (store.ok()) {
      cache_ = std::move(store).value();
    } else {
      // Persistence is an accelerator, not a dependency: come up
      // memory-only rather than refuse to serve.
      std::fprintf(stderr, "omqc_server: --cache-dir unusable (%s); "
                           "running memory-only\n",
                   store.status().ToString().c_str());
    }
  }
  if (cache_ == nullptr) cache_ = std::make_unique<OmqCache>();
}

OmqServer::~OmqServer() { Shutdown(); }

void OmqServer::Start() {
  // call_once, not an atomic exchange: concurrent first connections must
  // all block until the pool exists, or the loser's session thread would
  // submit to a half-constructed pool.
  std::call_once(start_once_, [this] {
    size_t threads = config_.worker_threads != 0
                         ? config_.worker_threads
                         : ThreadPool::DefaultConcurrency();
    pool_ = std::make_unique<ThreadPool>(threads);
  });
}

Result<uint16_t> OmqServer::ListenAndStart(uint16_t port) {
  Start();
  OMQC_ASSIGN_OR_RETURN(listen_fd_,
                        ListenTcp(config_.listen_address, port));
  OMQC_ASSIGN_OR_RETURN(uint16_t bound, LocalPort(listen_fd_.get()));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return bound;
}

Result<OwnedFd> OmqServer::ConnectInProcess() {
  Start();
  if (stopping_.load(std::memory_order_acquire)) {
    return Status::Cancelled("server shutting down");
  }
  OMQC_ASSIGN_OR_RETURN(auto pair, StreamSocketPair());
  auto conn = std::make_shared<Connection>();
  conn->fd = std::move(pair.second);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    connections_.push_back(conn);
    session_threads_.emplace_back(
        [this, conn]() mutable { SessionLoop(std::move(conn)); });
  }
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.connections;
  }
  return std::move(pair.first);
}

void OmqServer::AcceptLoop() {
  for (;;) {
    auto accepted = AcceptConnection(listen_fd_.get());
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kCancelled ||
          stopping_.load(std::memory_order_acquire)) {
        return;
      }
      continue;  // transient accept failure (e.g. peer reset in backlog)
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = std::move(*accepted);
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      connections_.push_back(conn);
      session_threads_.emplace_back(
          [this, conn]() mutable { SessionLoop(std::move(conn)); });
    }
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.connections;
    }
  }
}

void OmqServer::SessionLoop(std::shared_ptr<Connection> conn) {
  std::string payload;
  for (;;) {
    Status read = ReadFrame(conn->fd.get(), &payload);
    if (!read.ok()) {
      // kCancelled = orderly close between frames; anything else is a
      // corrupt stream — either way the session ends (in-flight requests
      // keep the fd alive through their own reference).
      if (read.code() != StatusCode::kCancelled) {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.malformed_frames;
      }
      break;
    }
    auto request = DecodeRequest(payload);
    if (!request.ok()) {
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.malformed_frames;
      }
      // The id may not have decoded: answer as request 0.
      SendResponse(conn, ErrorResponse(0, request.status()));
      continue;  // framing is intact; later frames may be fine
    }
    HandleRequest(conn, std::move(*request));
  }
  std::lock_guard<std::mutex> lock(sessions_mu_);
  connections_.erase(
      std::remove(connections_.begin(), connections_.end(), conn),
      connections_.end());
}

void OmqServer::HandleRequest(const std::shared_ptr<Connection>& conn,
                              WireRequest&& request) {
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.requests;
  }
  switch (request.type) {
    case RequestType::kPing: {
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.pings;
      }
      WireResponse response;
      response.request_id = request.request_id;
      response.body = "pong";
      SendResponse(conn, std::move(response));
      return;
    }
    case RequestType::kStats: {
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.stats_requests;
      }
      WireResponse response;
      response.request_id = request.request_id;
      response.body = StatsJson();
      SendResponse(conn, std::move(response));
      return;
    }
    case RequestType::kShutdown: {
      WireResponse response;
      response.request_id = request.request_id;
      response.body = "shutting down";
      SendResponse(conn, std::move(response));
      RequestShutdown();
      return;
    }
    case RequestType::kEval:
    case RequestType::kContain:
    case RequestType::kClassify:
      break;
  }

  // Parse on the session thread so malformed programs bounce immediately
  // without consuming a pool slot or tenant accounting.
  auto program = ParseProgram(request.program);
  if (!program.ok()) {
    SendResponse(conn, ErrorResponse(
                           request.request_id,
                           Status::InvalidArgument(StrCat(
                               "program: ", program.status().message()))));
    return;
  }

  auto pending = std::make_shared<PendingRequest>();
  pending->program = std::move(*program);
  pending->schema = InferProgramDataSchema(pending->program);
  pending->conn = conn;
  pending->request = std::move(request);

  pending->lease = tenants_.Admit(pending->request.tenant);
  Dispatch(pending);
}

void OmqServer::Dispatch(const std::shared_ptr<PendingRequest>& pending) {
  // A tenant whose governor is tripped (e.g. blew its memory quota) fails
  // fast until its in-flight requests drain and the governor is replaced.
  // Once Shutdown() has begun nothing new reaches the pool: its final
  // Wait() must not race a late submission.
  Status refusal = pending->lease.governor->TripStatus();
  if (!refusal.ok()) {
    refusal = Status(refusal.code(), StrCat("tenant governor tripped: ",
                                            refusal.message()));
  } else if (stopping_.load(std::memory_order_acquire)) {
    refusal = Status::Cancelled("server shutting down");
  } else {
    pending->submitted = Clock::now();
    pool_->Submit([this, pending] { Execute(pending); });
    return;
  }
  SendResponse(pending->conn,
               ErrorResponse(pending->request.request_id, refusal));
  tenants_.Complete(pending->lease, /*residual_bytes=*/0, refusal.code(),
                    EngineStats());
}

void OmqServer::Execute(const std::shared_ptr<PendingRequest>& pending) {
  const WireRequest& request = pending->request;

  ResourceGovernor req_gov(pending->lease.governor.get());
  uint64_t deadline_ms = request.deadline_ms;
  if (deadline_ms == 0) deadline_ms = config_.default_deadline_ms;
  if (deadline_ms > 0) {
    req_gov.set_deadline_after(std::chrono::milliseconds(deadline_ms));
  }
  if (request.max_memory_bytes > 0) {
    req_gov.set_memory_budget(
        static_cast<size_t>(request.max_memory_bytes));
  }

  WireResponse response;
  response.request_id = request.request_id;
  response.admission_wait_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now() - pending->submitted)
          .count());

  EngineStats stats;
  switch (request.type) {
    case RequestType::kEval: {
      auto omq = SingleQueryNamed(pending->program, pending->schema,
                                  request.query);
      if (!omq.ok()) {
        response.code = omq.status().code();
        response.message = omq.status().message();
        break;
      }
      EvalOptions options;
      options.cache = cache_.get();
      options.governor = &req_gov;
      auto answers =
          EvalAll(*omq, pending->program.facts, options, &stats);
      if (!answers.ok()) {
        response.code = answers.status().code();
        response.message = answers.status().message();
      } else {
        response.body = FormatAnswers(*answers);
      }
      response.stats_json = EngineStatsToJson(stats);
      break;
    }
    case RequestType::kContain: {
      auto q1 = SingleQueryNamed(pending->program, pending->schema,
                                 request.query);
      auto q2 = SingleQueryNamed(pending->program, pending->schema,
                                 request.query2);
      if (!q1.ok() || !q2.ok()) {
        const Status& bad = q1.ok() ? q2.status() : q1.status();
        response.code = bad.code();
        response.message = bad.message();
        break;
      }
      ContainmentOptions options;
      options.cache = cache_.get();
      options.governor = &req_gov;
      auto result = CheckContainment(*q1, *q2, options);
      if (!result.ok()) {
        response.code = result.status().code();
        response.message = result.status().message();
      } else {
        response.body =
            FormatContainmentReport(request.query, request.query2, *result);
        stats = result->stats;
      }
      response.stats_json = EngineStatsToJson(stats);
      break;
    }
    case RequestType::kClassify: {
      response.body = FormatClassificationReport(pending->program.tgds);
      break;
    }
    default:
      response.code = StatusCode::kInternal;
      response.message = "non-executable request type reached the pool";
      break;
  }

  // A trip is the authoritative outcome even when the engine salvaged a
  // partial result (mirrors omqc_cli's exit 3): the client sees the trip
  // code, plus whatever partial body was produced.
  Status trip = req_gov.TripStatus();
  if (!trip.ok()) {
    response.code = trip.code();
    response.message = trip.message();
  }

  StatusCode code = response.code;
  SendResponse(pending->conn, std::move(response));
  tenants_.Complete(pending->lease, req_gov.local_charged_bytes(), code,
                    stats);
}

void OmqServer::SendResponse(const std::shared_ptr<Connection>& conn,
                             WireResponse&& response) {
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    if (response.code == StatusCode::kOk) {
      ++counters_.responses_ok;
    } else {
      ++counters_.responses_error;
    }
  }
  std::string payload = EncodeResponse(response);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->broken.load(std::memory_order_relaxed)) return;
  if (!WriteFrame(conn->fd.get(), payload).ok()) {
    conn->broken.store(true, std::memory_order_relaxed);
  }
}

void OmqServer::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

bool OmqServer::WaitForShutdownRequest(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait_for(lock, timeout, [&] { return shutdown_requested_; });
  return shutdown_requested_;
}

void OmqServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  // From here on Dispatch refuses new work with kCancelled.
  stopping_.store(true, std::memory_order_release);
  // 1. Stop accepting connections.
  if (listen_fd_.valid()) ShutdownSocket(listen_fd_.get());
  if (accept_thread_.joinable()) accept_thread_.join();
  // 2. Drain every execution, including requests still waiting in the
  //    pool's queue.
  if (pool_ != nullptr) pool_->Wait();
  // 3. Unblock session readers and join them.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& conn : connections_) {
      if (conn->fd.valid()) ShutdownSocket(conn->fd.get());
    }
  }
  std::vector<std::thread> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(session_threads_);
  }
  for (std::thread& t : sessions) {
    if (t.joinable()) t.join();
  }
  // 4. A session thread that passed the stopping_ check just before it
  //    was set may have submitted after step 2: drain again, so no
  //    request runs after the flush.
  if (pool_ != nullptr) pool_->Wait();
  // 5. Every response is out; seal what this run compiled into the
  //    persistent store (no-op for the memory-only cache).
  cache_->Flush();
}

ServerCounters OmqServer::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

std::string OmqServer::StatsJson() const {
  JsonWriter w;
  w.BeginObject();

  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    w.BeginObject("server");
    w.Field("connections", counters_.connections);
    w.Field("requests", counters_.requests);
    w.Field("responses_ok", counters_.responses_ok);
    w.Field("responses_error", counters_.responses_error);
    w.Field("pings", counters_.pings);
    w.Field("stats_requests", counters_.stats_requests);
    w.Field("malformed_frames", counters_.malformed_frames);
    w.Field("worker_threads",
            static_cast<uint64_t>(pool_ != nullptr ? pool_->num_threads()
                                                   : 0));
    w.EndObject();
  }

  AppendOmqCacheStatsJson(w, "cache", cache_->Stats());
  AppendGovernorCountersJson(w, "governor", governor_.counters());
  w.Field("governor_charged_bytes",
          static_cast<uint64_t>(governor_.local_charged_bytes()));

  w.BeginObject("tenants");
  for (const auto& [name, snap] : tenants_.Snapshot()) {
    w.BeginObject(name);
    w.Field("requests", snap.counters.requests);
    w.Field("completed", snap.counters.completed);
    w.Field("failed", snap.counters.failed);
    w.Field("deadline_trips", snap.counters.deadline_trips);
    w.Field("cancel_trips", snap.counters.cancel_trips);
    w.Field("memory_trips", snap.counters.memory_trips);
    w.Field("cache_hits", snap.counters.cache_hits);
    w.Field("cache_misses", snap.counters.cache_misses);
    w.Field("governor_resets", snap.counters.governor_resets);
    w.Field("inflight", snap.inflight);
    w.Field("charged_bytes", static_cast<uint64_t>(snap.charged_bytes));
    w.Field("tripped", snap.tripped);
    w.EndObject();
  }
  w.EndObject();

  w.EndObject();
  return w.TakeString();
}

}  // namespace omqc
