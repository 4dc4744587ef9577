// End-to-end tests for the omqc server subsystem (src/server): wire
// protocol round-trips, CLI-identical verdicts across worker pool sizes,
// per-tenant governor isolation (deadline and memory trips never touch
// sibling tenants), concurrent cold requests that agree and warm the
// shared cache, and shutdown: every running or pooled request is answered
// and no governor charge leaks.

#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/eval.h"
#include "core/frontend.h"
#include "generators/families.h"
#include "server/client.h"
#include "server/wire.h"
#include "tgd/parser.h"

namespace omqc {
namespace {

// ---------- Fixtures ----------

// The university program from tests/integration_test.cc: small, fast and
// exercises eval, containment and classification.
constexpr const char* kUniversityProgram = R"(
  Professor(X) -> Faculty(X).
  Lecturer(X) -> Faculty(X).
  Faculty(X) -> WorksFor(X,D), Department(D).
  Teaches(X,C) -> Faculty(X).
  FacultyQ(X) :- Faculty(X).
  TeachersQ(X) :- Teaches(X,C).
  Professor(turing).
  Lecturer(hopper).
  Teaches(turing, computability).
)";

// What omqc_cli would print for each request kind, computed through the
// exact same frontend path the server uses (core/frontend.h).
struct ExpectedBodies {
  std::string eval;      // eval FacultyQ
  std::string contain;   // contain TeachersQ ⊆ FacultyQ
  std::string classify;  // classify
};

ExpectedBodies ComputeExpected() {
  auto program = ParseProgram(kUniversityProgram);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  Schema schema = InferProgramDataSchema(*program);

  ExpectedBodies expected;
  auto eval_q = SingleQueryNamed(*program, schema, "FacultyQ");
  EXPECT_TRUE(eval_q.ok());
  auto answers = EvalAll(*eval_q, program->facts, EvalOptions());
  EXPECT_TRUE(answers.ok()) << answers.status().ToString();
  expected.eval = FormatAnswers(*answers);

  auto lhs = SingleQueryNamed(*program, schema, "TeachersQ");
  auto rhs = SingleQueryNamed(*program, schema, "FacultyQ");
  EXPECT_TRUE(lhs.ok() && rhs.ok());
  auto contained = CheckContainment(*lhs, *rhs, ContainmentOptions());
  EXPECT_TRUE(contained.ok()) << contained.status().ToString();
  expected.contain =
      FormatContainmentReport("TeachersQ", "FacultyQ", *contained);

  expected.classify = FormatClassificationReport(program->tgds);
  return expected;
}

// The sticky witness family at n=5 takes ~1s of containment work: slow
// enough that a 50ms deadline reliably trips mid-flight, fast enough that
// the test stays bounded even if the trip were missed entirely.
std::string SlowProgramText() {
  Omq omq = MakeStickyWitnessFamily(5);
  Program program;
  program.tgds = omq.tgds;
  program.queries.push_back({"Q", omq.query});
  return SerializeProgram(program);
}

OmqClient MakeClient(OmqServer& server) {
  auto fd = server.ConnectInProcess();
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  return OmqClient(std::move(*fd));
}

// Completion accounting (tenant counters, governor releases) happens
// after the response is sent, so tests poll for the settled state.
template <typename Pred>
bool WaitFor(Pred pred, std::chrono::milliseconds timeout =
                            std::chrono::milliseconds(2000)) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

// ---------- Wire protocol ----------

TEST(WireTest, RequestRoundTrip) {
  WireRequest request;
  request.type = RequestType::kContain;
  request.request_id = 42;
  request.tenant = "tenant-a";
  request.deadline_ms = 250;
  request.max_memory_bytes = 1 << 20;
  request.program = "R(a). Q(X) :- R(X).";
  request.query = "Q";
  request.query2 = "Q2";

  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, RequestType::kContain);
  EXPECT_EQ(decoded->request_id, 42u);
  EXPECT_EQ(decoded->tenant, "tenant-a");
  EXPECT_EQ(decoded->deadline_ms, 250u);
  EXPECT_EQ(decoded->max_memory_bytes, static_cast<uint64_t>(1 << 20));
  EXPECT_EQ(decoded->program, request.program);
  EXPECT_EQ(decoded->query, "Q");
  EXPECT_EQ(decoded->query2, "Q2");
}

TEST(WireTest, ResponseRoundTrip) {
  WireResponse response;
  response.request_id = 7;
  response.code = StatusCode::kDeadlineExceeded;
  response.message = "deadline exceeded";
  response.body = "3 answer(s):\n";
  response.stats_json = "{}";
  response.batch_id = 9;
  response.batch_size = 4;
  response.admission_wait_us = 1234;

  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_id, 7u);
  EXPECT_EQ(decoded->code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded->message, "deadline exceeded");
  EXPECT_EQ(decoded->body, "3 answer(s):\n");
  EXPECT_EQ(decoded->batch_id, 9u);
  EXPECT_EQ(decoded->batch_size, 4u);
  EXPECT_EQ(decoded->admission_wait_us, 1234u);
}

TEST(WireTest, MalformedAndVersionMismatchAreRejected) {
  EXPECT_FALSE(DecodeRequest("").ok());
  EXPECT_FALSE(DecodeRequest("x").ok());
  // Truncated mid-string: a length prefix pointing past the payload end.
  std::string truncated = EncodeRequest(WireRequest{});
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(DecodeRequest(truncated).ok());

  std::string wrong_version = EncodeRequest(WireRequest{});
  wrong_version[0] = static_cast<char>(kWireVersion + 1);
  EXPECT_EQ(DecodeRequest(wrong_version).status().code(),
            StatusCode::kUnsupported);
}

// ---------- Verdicts: CLI-identical across pool sizes ----------

TEST(ServerTest, VerdictsByteIdenticalAcrossWorkerThreads) {
  ExpectedBodies expected = ComputeExpected();
  for (size_t threads : {1u, 2u, 8u}) {
    ServerConfig config;
    config.worker_threads = threads;
    OmqServer server(std::move(config));
    OmqClient client = MakeClient(server);

    auto ping = client.Ping();
    ASSERT_TRUE(ping.ok());
    EXPECT_EQ(ping->body, "pong");

    auto eval = client.Eval(kUniversityProgram, "FacultyQ");
    ASSERT_TRUE(eval.ok()) << eval.status().ToString();
    EXPECT_EQ(eval->code, StatusCode::kOk) << eval->message;
    EXPECT_EQ(eval->body, expected.eval) << "threads=" << threads;
    EXPECT_FALSE(eval->stats_json.empty());

    auto contain =
        client.Contain(kUniversityProgram, "TeachersQ", "FacultyQ");
    ASSERT_TRUE(contain.ok());
    EXPECT_EQ(contain->code, StatusCode::kOk) << contain->message;
    EXPECT_EQ(contain->body, expected.contain) << "threads=" << threads;

    auto classify = client.Classify(kUniversityProgram);
    ASSERT_TRUE(classify.ok());
    EXPECT_EQ(classify->code, StatusCode::kOk) << classify->message;
    EXPECT_EQ(classify->body, expected.classify) << "threads=" << threads;

    server.Shutdown();
  }
}

TEST(ServerTest, ConcurrentMixedLoadAgreesAtEveryPoolSize) {
  ExpectedBodies expected = ComputeExpected();
  for (size_t threads : {1u, 2u, 8u}) {
    ServerConfig config;
    config.worker_threads = threads;
    OmqServer server(std::move(config));

    constexpr int kClients = 6;
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int c = 0; c < kClients; ++c) {
      OmqClient client = MakeClient(server);
      workers.emplace_back(
          [c, &expected, &failures, client = std::move(client)]() mutable {
            for (int i = 0; i < 4; ++i) {
              std::string tenant = "t" + std::to_string(c % 2);
              Result<WireResponse> response =
                  (c + i) % 3 == 0
                      ? client.Eval(kUniversityProgram, "FacultyQ", tenant)
                  : (c + i) % 3 == 1
                      ? client.Contain(kUniversityProgram, "TeachersQ",
                                       "FacultyQ", tenant)
                      : client.Classify(kUniversityProgram, tenant);
              const std::string& want = (c + i) % 3 == 0 ? expected.eval
                                        : (c + i) % 3 == 1
                                            ? expected.contain
                                            : expected.classify;
              if (!response.ok() || response->code != StatusCode::kOk ||
                  response->body != want) {
                failures.fetch_add(1);
              }
            }
          });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(failures.load(), 0) << "threads=" << threads;
    server.Shutdown();
  }
}

// ---------- Session robustness ----------

TEST(ServerTest, MalformedProgramDoesNotKillTheSession) {
  OmqServer server((ServerConfig()));
  OmqClient client = MakeClient(server);

  auto bad = client.Eval("R(a. this is not DLGP", "Q");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->code, StatusCode::kInvalidArgument);

  auto missing = client.Eval(kUniversityProgram, "NoSuchQuery");
  ASSERT_TRUE(missing.ok());
  EXPECT_NE(missing->code, StatusCode::kOk);

  // The same connection still serves well-formed requests.
  auto good = client.Eval(kUniversityProgram, "FacultyQ");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->code, StatusCode::kOk) << good->message;
}

TEST(ServerTest, MalformedFrameGetsAnErrorAndTheSessionSurvives) {
  OmqServer server((ServerConfig()));
  auto fd = server.ConnectInProcess();
  ASSERT_TRUE(fd.ok());

  std::string wrong_version = EncodeRequest(WireRequest{});
  wrong_version[0] = static_cast<char>(kWireVersion + 1);
  ASSERT_TRUE(WriteFrame(fd->get(), wrong_version).ok());
  std::string payload;
  ASSERT_TRUE(ReadFrame(fd->get(), &payload).ok());
  auto error = DecodeResponse(payload);
  ASSERT_TRUE(error.ok());
  EXPECT_NE(error->code, StatusCode::kOk);

  OmqClient client(std::move(*fd));
  auto ping = client.Ping();
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->body, "pong");
  EXPECT_EQ(server.counters().malformed_frames, 1u);
}

// ---------- Tenant isolation ----------

TEST(ServerTest, MemoryTrippedTenantDoesNotDisturbSiblings) {
  ServerConfig config;
  config.worker_threads = 4;
  OmqServer server(std::move(config));

  std::atomic<int> good_failures{0};
  std::thread good_thread([&server, &good_failures]() {
    OmqClient client = MakeClient(server);
    for (int i = 0; i < 5; ++i) {
      auto response = client.Eval(kUniversityProgram, "FacultyQ", "good");
      if (!response.ok() || response->code != StatusCode::kOk) {
        good_failures.fetch_add(1);
      }
    }
  });

  OmqClient greedy = MakeClient(server);
  WireRequest request;
  request.type = RequestType::kEval;
  request.tenant = "greedy";
  request.max_memory_bytes = 1;  // first chase charge trips
  // One fact more than the good tenant's database: the chase cache key
  // hashes the facts, so no sibling can have cached this chase and the
  // greedy request always runs (and charges) its own.
  request.program = std::string(kUniversityProgram) + "Lecturer(greedy).\n";
  request.query = "FacultyQ";
  auto response = greedy.Call(std::move(request));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kResourceExhausted)
      << response->message;

  good_thread.join();
  EXPECT_EQ(good_failures.load(), 0);

  ASSERT_TRUE(WaitFor([&] {
    auto snapshot = server.TenantSnapshots();
    return snapshot.count("greedy") != 0 &&
           snapshot.at("greedy").counters.memory_trips >= 1;
  }));
  auto snapshot = server.TenantSnapshots();
  EXPECT_EQ(snapshot.at("good").counters.failed, 0u);
  EXPECT_FALSE(snapshot.at("good").tripped);
  server.Shutdown();
}

TEST(ServerTest, DeadlineTrippedTenantDoesNotDisturbSiblings) {
  ServerConfig config;
  config.worker_threads = 4;
  OmqServer server(std::move(config));
  std::string slow_program = SlowProgramText();

  std::atomic<int> fast_failures{0};
  std::thread fast_thread([&server, &fast_failures]() {
    OmqClient client = MakeClient(server);
    for (int i = 0; i < 5; ++i) {
      auto response = client.Eval(kUniversityProgram, "FacultyQ", "fast");
      if (!response.ok() || response->code != StatusCode::kOk) {
        fast_failures.fetch_add(1);
      }
    }
  });

  OmqClient slow = MakeClient(server);
  WireRequest request;
  request.type = RequestType::kContain;
  request.tenant = "slow";
  request.deadline_ms = 50;
  request.program = slow_program;
  request.query = "Q";
  request.query2 = "Q";
  auto response = slow.Call(std::move(request));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kDeadlineExceeded)
      << response->message;

  fast_thread.join();
  EXPECT_EQ(fast_failures.load(), 0);

  ASSERT_TRUE(WaitFor([&] {
    auto snapshot = server.TenantSnapshots();
    return snapshot.count("slow") != 0 &&
           snapshot.at("slow").counters.deadline_trips >= 1 &&
           snapshot.count("fast") != 0 &&
           snapshot.at("fast").counters.completed == 5;
  }));
  auto snapshot = server.TenantSnapshots();
  EXPECT_EQ(snapshot.at("fast").counters.failed, 0u);
  server.Shutdown();
}

TEST(ServerTest, TrippedTenantGovernorIsReplacedAfterDrain) {
  ServerConfig config;
  config.tenant_quota.memory_quota_bytes = 1;  // every tenant trips fast
  OmqServer server(std::move(config));
  OmqClient client = MakeClient(server);

  auto first = client.Eval(kUniversityProgram, "FacultyQ", "capped");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->code, StatusCode::kResourceExhausted) << first->message;

  // Throttled, not bricked: once the trip drains the tenant gets a fresh
  // governor (and promptly trips it again — the quota is 1 byte).
  ASSERT_TRUE(WaitFor([&] {
    auto snapshot = server.TenantSnapshots();
    return snapshot.at("capped").counters.governor_resets >= 1 &&
           !snapshot.at("capped").tripped;
  }));
  auto second = client.Eval(kUniversityProgram, "FacultyQ", "capped");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->code, StatusCode::kResourceExhausted);
  server.Shutdown();
}

// ---------- Shared compilation cache ----------

TEST(ServerTest, ConcurrentColdRequestsAgreeAndWarmTheCache) {
  ExpectedBodies expected = ComputeExpected();
  ServerConfig config;
  config.worker_threads = 4;
  OmqServer server(std::move(config));

  // Four concurrent identical requests from two tenants on a fresh
  // server: each may compile cold, and every one must return the
  // in-process verdict.
  constexpr int kRequests = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int i = 0; i < kRequests; ++i) {
    OmqClient client = MakeClient(server);
    workers.emplace_back(
        [i, &expected, &failures, client = std::move(client)]() mutable {
          auto response = client.Contain(kUniversityProgram, "TeachersQ",
                                         "FacultyQ",
                                         "t" + std::to_string(i % 2));
          if (!response.ok() || response->code != StatusCode::kOk ||
              response->body != expected.contain ||
              response->batch_id != 0 || response->batch_size != 0) {
            failures.fetch_add(1);
          }
        });
  }
  for (std::thread& w : workers) w.join();
  ASSERT_EQ(failures.load(), 0);

  // A repeat compiles nothing: everything it needs is in the shared cache.
  uint64_t misses = server.cache()->Stats().counters.misses;
  ASSERT_GT(misses, 0u);
  OmqClient client = MakeClient(server);
  auto repeat = client.Contain(kUniversityProgram, "TeachersQ", "FacultyQ");
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat->code, StatusCode::kOk) << repeat->message;
  EXPECT_EQ(repeat->body, expected.contain);
  EXPECT_EQ(server.cache()->Stats().counters.misses, misses);
  server.Shutdown();
}

// ---------- Shutdown ----------

TEST(ServerTest, ShutdownAnswersRunningAndPooledRequestsAndLeaksNothing) {
  // One worker: the slow request occupies it, so the second request is
  // admitted and waits in the pool's queue when the shutdown starts.
  ServerConfig config;
  config.worker_threads = 1;
  OmqServer server(std::move(config));
  std::string slow_program = SlowProgramText();
  OmqClient slow_client = MakeClient(server);
  OmqClient pooled_client = MakeClient(server);

  Result<WireResponse> slow = Status::Internal("no response");
  Result<WireResponse> pooled = Status::Internal("no response");
  std::thread slow_thread(
      [&] { slow = slow_client.Contain(slow_program, "Q", "Q", "hot"); });
  ASSERT_TRUE(WaitFor([&] {
    auto snaps = server.TenantSnapshots();
    auto it = snaps.find("hot");
    return it != snaps.end() && it->second.inflight == 1;
  }));
  std::thread pooled_thread([&] {
    pooled = pooled_client.Eval(kUniversityProgram, "FacultyQ", "hot");
  });
  ASSERT_TRUE(WaitFor([&] {
    auto snaps = server.TenantSnapshots();
    auto it = snaps.find("hot");
    return it != snaps.end() && it->second.inflight == 2;
  }));

  // Shut down while one request runs and one waits for the worker.
  server.Shutdown();
  slow_thread.join();
  pooled_thread.join();

  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(slow->code, StatusCode::kOk) << slow->message;
  // Admitted just before the shutdown began, the request is either
  // drained from the pool or refused at submission.
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  EXPECT_TRUE(pooled->code == StatusCode::kOk ||
              pooled->code == StatusCode::kCancelled)
      << pooled->message;

  // Every lease is settled and every byte returned to the server root.
  EXPECT_EQ(server.governor()->local_charged_bytes(), 0u);
  auto snapshot = server.TenantSnapshots().at("hot");
  EXPECT_EQ(snapshot.inflight, 0u);
  EXPECT_EQ(snapshot.charged_bytes, 0u);
  EXPECT_EQ(snapshot.counters.requests, 2u);
  EXPECT_EQ(snapshot.counters.completed + snapshot.counters.failed, 2u);
}

TEST(ServerTest, ShutdownRequestWakesTheDaemonLoop) {
  OmqServer server((ServerConfig()));
  OmqClient client = MakeClient(server);
  EXPECT_FALSE(
      server.WaitForShutdownRequest(std::chrono::milliseconds(0)));
  auto response = client.Shutdown();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kOk);
  EXPECT_TRUE(
      server.WaitForShutdownRequest(std::chrono::milliseconds(2000)));
  server.Shutdown();
}

// ---------- Client retry ----------

TEST(ClientRetryTest, ConnectRetriesUntilTheListenerIsUp) {
  // Reserve an ephemeral port, then release it for the server to claim
  // (SO_REUSEADDR makes the rebind race-free against TIME_WAIT).
  auto reservation = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(reservation.ok()) << reservation.status().ToString();
  auto port = LocalPort(reservation->get());
  ASSERT_TRUE(port.ok());
  reservation->Reset();

  OmqServer server((ServerConfig()));
  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    auto bound = server.ListenAndStart(*port);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  });
  RetryPolicy policy;
  policy.max_attempts = 40;
  policy.initial_backoff_ms = 20;
  policy.max_backoff_ms = 50;
  auto client = OmqClient::Connect("127.0.0.1", *port, policy);
  starter.join();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto pong = client->Ping();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->code, StatusCode::kOk);
  server.Shutdown();
}

TEST(ClientRetryTest, ReconnectsAndResendsAfterAPeerReset) {
  auto listener = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  auto port = LocalPort(listener->get());
  ASSERT_TRUE(port.ok());

  std::thread flaky([fd = listener->get()] {
    // First connection: accepted and dropped on the floor.
    auto first = AcceptConnection(fd);
    if (first.ok()) first->Reset();
    // Second connection: speak the protocol for one request.
    auto second = AcceptConnection(fd);
    if (!second.ok()) return;
    std::string payload;
    if (!ReadFrame(second->get(), &payload).ok()) return;
    auto request = DecodeRequest(payload);
    if (!request.ok()) return;
    WireResponse response;
    response.request_id = request->request_id;
    response.body = "pong";
    Status written = WriteFrame(second->get(), EncodeResponse(response));
    (void)written;
  });

  auto client = OmqClient::Connect("127.0.0.1", *port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 5;
  client->set_retry_policy(policy);
  auto pong = client->Ping();
  flaky.join();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->body, "pong");
  EXPECT_EQ(client->retry_counters().reconnects, 1u);
  EXPECT_GE(client->retry_counters().backoffs, 1u);
}

TEST(ClientRetryTest, RetryStopsAtTheRequestDeadline) {
  auto listener = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  auto port = LocalPort(listener->get());
  ASSERT_TRUE(port.ok());
  std::thread dropper([fd = listener->get()] {
    // Drop every connection until the listener is shut down.
    for (;;) {
      auto conn = AcceptConnection(fd);
      if (!conn.ok()) return;
      conn->Reset();
    }
  });

  auto client = OmqClient::Connect("127.0.0.1", *port);
  ASSERT_TRUE(client.ok());
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff_ms = 30;
  policy.max_backoff_ms = 30;
  client->set_retry_policy(policy);
  WireRequest request;
  request.type = RequestType::kPing;
  request.deadline_ms = 120;
  auto start = std::chrono::steady_clock::now();
  auto response = client->Call(std::move(request));
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_FALSE(response.ok());
  // The deadline bounds the whole retry loop: nowhere near the ~1.5s
  // that 100 attempts at 30ms backoff would take.
  EXPECT_LT(elapsed, 1000);
  EXPECT_LE(client->retry_counters().backoffs, 8u);
  ShutdownSocket(listener->get());
  dropper.join();
}

TEST(ServerTest, StatsEndpointServesTheMetricsDocument) {
  OmqServer server((ServerConfig()));
  OmqClient client = MakeClient(server);
  ASSERT_TRUE(client.Eval(kUniversityProgram, "FacultyQ", "acme").ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->code, StatusCode::kOk);
  EXPECT_NE(stats->body.find("\"server\""), std::string::npos);
  EXPECT_NE(stats->body.find("\"cache\""), std::string::npos);
  EXPECT_NE(stats->body.find("\"tenants\""), std::string::npos);
  EXPECT_NE(stats->body.find("\"acme\""), std::string::npos);
  server.Shutdown();
}

}  // namespace
}  // namespace omqc
