// serve_burst: an OmqServer in this process, listening on loopback TCP,
// driven as a closed loop by `clients` OmqClient connections (4 by
// default, one per core). Each stream program gets an adjacent burst of 8
// requests — eval Q1, contain Q1 Q2, contain Q2 Q1, classify, twice — so
// the first requests of a burst arrive together and cold and the rest hit
// the shared cache. Every body must be byte-identical to what the Format*
// helpers produce for the same request in process.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "base/string_util.h"
#include "cache/omq_cache.h"
#include "core/frontend.h"
#include "server/client.h"
#include "server/server.h"
#include "trace.h"
#include "workloads.h"

namespace e2e {

using omqc::ContainmentOutcome;
using omqc::RequestType;
using omqc::StrCat;

namespace {

constexpr int kBurst = 8;
constexpr size_t kProgramPool = 6000;

/// The per-request EngineStats fields the traced run reads off the wire
/// (core/stats_json layout), indexed by WireField.
enum WireField {
  kLookups, kHits, kMisses, kInserts, kChecks, kQueries, kRewriteSteps,
  kFactorSteps, kDedup, kPrunes, kHomSearches, kHomSteps, kHomScanned,
  kChaseSteps, kChaseAtoms, kTriggers, kRedundant, kCandidates, kExhaustions,
  kWireFieldCount
};
constexpr struct {
  const char* section;
  const char* key;
} kWireFields[kWireFieldCount] = {
    {"cache", "lookups"},          {"cache", "hits"},
    {"cache", "misses"},           {"cache", "insertions"},
    {"governor", "checks"},        {"rewrite", "queries_generated"},
    {"rewrite", "rewriting_steps"}, {"rewrite", "factorization_steps"},
    {"rewrite", "dedup_hits"},     {"rewrite", "subsumption_prunes"},
    {"hom", "searches"},           {"hom", "steps"},
    {"hom", "candidates_scanned"}, {"chase", "steps"},
    {"chase", "atoms_derived"},    {"chase", "triggers_enumerated"},
    {"chase", "redundant_triggers_skipped"},
    {"containment", "disjuncts_checked"},
    {"containment", "budget_exhaustions"},
};

/// The request at burst position `slot` (eval, contain Q1 Q2, contain Q2
/// Q1, classify, repeated).
omqc::WireRequest BurstRequest(const BurstProgram& program, int slot) {
  omqc::WireRequest request;
  request.program = program.text;
  switch (slot % 4) {
    case 0:
      request.type = RequestType::kEval;
      request.query = omqc::kLhsQuery;
      break;
    case 1:
      request.type = RequestType::kContain;
      request.query = omqc::kLhsQuery;
      request.query2 = omqc::kRhsQuery;
      break;
    case 2:
      request.type = RequestType::kContain;
      request.query = omqc::kRhsQuery;
      request.query2 = omqc::kLhsQuery;
      break;
    default:
      request.type = RequestType::kClassify;
      break;
  }
  return request;
}

/// One completed call as the client saw it.
struct Sample {
  uint64_t index = 0;  ///< position in the request stream
  bool transport_ok = false;
  omqc::StatusCode code = omqc::StatusCode::kOk;
  std::string body;
  double latency_ms = 0;
  uint64_t admission_wait_us = 0;
  uint32_t batch_size = 0;
  /// EngineStats fields of the response (traced run only).
  std::array<double, kWireFieldCount> wire{};
};

/// The bodies the Format* helpers give for the four burst requests of
/// `program`, computed in process with a fresh store (as omqc_cli does).
struct ExpectedBodies {
  std::string body[4];
  bool ok[4] = {false, false, false, false};
  ContainmentOutcome forward = ContainmentOutcome::kUnknown;
  std::vector<std::string> answers;
};

ExpectedBodies ComputeExpected(const BurstProgram& program) {
  ExpectedBodies out;
  auto parsed = omqc::ParseProgram(program.text);
  if (!parsed.ok()) return out;
  omqc::Schema schema = omqc::InferProgramDataSchema(*parsed);
  omqc::OmqCache store(omqc::OmqCacheConfig{1024, 8});
  auto q1 = omqc::SingleQueryNamed(*parsed, schema, omqc::kLhsQuery);
  auto q2 = omqc::SingleQueryNamed(*parsed, schema, omqc::kRhsQuery);
  if (!q1.ok() || !q2.ok()) return out;
  omqc::EvalOptions eval;
  eval.cache = &store;
  auto answers = omqc::EvalAll(*q1, parsed->facts, eval);
  if (answers.ok()) {
    out.body[0] = omqc::FormatAnswers(*answers);
    out.ok[0] = true;
    for (const auto& tuple : *answers) {
      if (tuple.size() == 1) out.answers.push_back(tuple.front().ToString());
    }
  }
  for (int dir = 0; dir < 2; ++dir) {
    omqc::ContainmentOptions options;
    options.cache = &store;
    const omqc::Omq& lhs = dir == 0 ? *q1 : *q2;
    const omqc::Omq& rhs = dir == 0 ? *q2 : *q1;
    auto result = omqc::CheckContainment(lhs, rhs, options);
    if (!result.ok()) continue;
    if (dir == 0) out.forward = result->outcome;
    out.body[1 + dir] = omqc::FormatContainmentReport(
        dir == 0 ? omqc::kLhsQuery : omqc::kRhsQuery,
        dir == 0 ? omqc::kRhsQuery : omqc::kLhsQuery, *result);
    out.ok[1 + dir] = true;
  }
  out.body[3] = omqc::FormatClassificationReport(parsed->tgds);
  out.ok[3] = true;
  return out;
}

/// A server plus its connected clients.
struct Rig {
  std::unique_ptr<omqc::OmqServer> server;
  std::vector<omqc::OmqClient> clients;

  void Close() {
    clients.clear();
    if (server != nullptr) server->Shutdown();
    server.reset();
  }
};

Rig StartRig(int clients) {
  Rig rig;
  omqc::ServerConfig config;
  config.worker_threads = 4;
  rig.server = std::make_unique<omqc::OmqServer>(config);
  auto port = rig.server->ListenAndStart(0);
  if (!port.ok()) Fail("listen: " + port.status().ToString());
  for (int i = 0; i < clients; ++i) {
    auto client = omqc::OmqClient::Connect("127.0.0.1", *port);
    if (!client.ok()) Fail("connect: " + client.status().ToString());
    rig.clients.push_back(std::move(client).value());
  }
  return rig;
}

}  // namespace

RunOutput RunServeBurst(const RunConfig& config) {
  const int clients = std::max(1, config.clients);
  std::vector<BurstProgram> pool;
  pool.reserve(kProgramPool);
  for (size_t i = 0; i < kProgramPool; ++i) {
    pool.push_back(BurstProgramAt(config.seed, i));
  }

  Rig rig = StartRig(clients);

  std::atomic<uint64_t> next{0};
  std::atomic<uint64_t> completed{0};
  std::atomic<double> probe_rss{0};
  std::vector<std::vector<Sample>> samples(clients);
  std::vector<Tracer> tracers(clients);
  const double cpu0 = CpuSeconds();
  const Clock::time_point start = Clock::now();
  auto drive = [&](int c) {
    omqc::OmqClient& client = rig.clients[static_cast<size_t>(c)];
    Tracer* tracer = config.trace ? &tracers[static_cast<size_t>(c)] : nullptr;
    for (;;) {
      if (config.fixed_requests == 0 &&
          SecondsBetween(start, Clock::now()) >= config.seconds) {
        return;
      }
      const uint64_t i = next.fetch_add(1);
      if (config.fixed_requests > 0 && i >= config.fixed_requests) return;
      const BurstProgram& program = pool[(i / kBurst) % kProgramPool];
      Sample s;
      s.index = i;
      omqc::WireRequest request =
          BurstRequest(program, static_cast<int>(i % kBurst));
      if (tracer != nullptr) tracer->set_request(static_cast<uint32_t>(i));
      Clock::time_point t0 = Clock::now();
      omqc::Result<omqc::WireResponse> response = omqc::Status::OK();
      {
        ScopedSpan span(tracer, "server.call");
        response = client.Call(std::move(request));
      }
      s.latency_ms = SecondsBetween(t0, Clock::now()) * 1e3;
      s.transport_ok = response.ok();
      if (response.ok()) {
        s.code = response->code;
        s.body = std::move(response->body);
        s.admission_wait_us = response->admission_wait_us;
        s.batch_size = response->batch_size;
        if (tracer != nullptr) {
          for (size_t f = 0; f < kWireFieldCount; ++f) {
            s.wire[f] = JsonNumberIn(response->stats_json,
                                     kWireFields[f].section,
                                     kWireFields[f].key);
          }
        }
      }
      samples[static_cast<size_t>(c)].push_back(std::move(s));
      if (completed.fetch_add(1) + 1 == MemoryProbeAt(Workload::kServeBurst)) {
        probe_rss.store(PeakRssMb());
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(drive, c);
  for (std::thread& t : threads) t.join();
  const double timed_s = SecondsBetween(start, Clock::now());
  const double cpu_s = CpuSeconds() - cpu0;
  rig.Close();

  // Set-up: server construction, listen and the client connects, repeated
  // on every CPU after the timed section (median). Rigs are closed
  // untimed. Back to back: a pause between samples made each one slower
  // and their median less steady.
  Rig fresh;
  std::vector<double> setup = TimeOnEachCpu(
      10, [&] { fresh = StartRig(clients); }, [&] { fresh.Close(); });

  std::vector<Sample> all;
  for (auto& per_client : samples) {
    for (Sample& s : per_client) all.push_back(std::move(s));
  }
  std::sort(all.begin(), all.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });

  // Answer checks, after the timed section.
  std::map<uint64_t, ExpectedBodies> expected;
  uint64_t errors = 0, wrong = 0, contains = 0, unknown = 0;
  std::vector<double> latency_ms, wait_us, exec_us;
  for (const Sample& s : all) {
    latency_ms.push_back(s.latency_ms);
    if (!s.transport_ok || s.code != omqc::StatusCode::kOk) {
      ++errors;
      continue;
    }
    const uint64_t p = (s.index / kBurst) % kProgramPool;
    auto it = expected.find(p);
    if (it == expected.end()) {
      it = expected.emplace(p, ComputeExpected(pool[p])).first;
    }
    const ExpectedBodies& want = it->second;
    const int slot = static_cast<int>(s.index % kBurst) % 4;
    if (!want.ok[slot] || want.body[slot] != s.body) {
      ++wrong;
      std::fprintf(stderr, "body mismatch at request %llu:\n%s\nvs\n%s\n",
                   static_cast<unsigned long long>(s.index), s.body.c_str(),
                   want.body[slot].c_str());
      continue;
    }
    if (slot == 0 && std::find(want.answers.begin(), want.answers.end(),
                               pool[p].witness) == want.answers.end()) {
      ++wrong;  // the certified witness must be a certain answer
    }
    if (slot == 1 || slot == 2) {
      ++contains;
      if (s.body.find(": UNKNOWN\n") != std::string::npos) ++unknown;
    }
    if (slot == 1 && want.forward != ContainmentOutcome::kUnknown &&
        want.forward != pool[p].expected) {
      ++wrong;
    }
    wait_us.push_back(static_cast<double>(s.admission_wait_us));
    exec_us.push_back(s.latency_ms * 1e3 -
                      static_cast<double>(s.admission_wait_us));
  }

  RunOutput out;
  out.attempted = all.size();
  out.failed = errors;
  out.correct = wrong == 0 && !all.empty();
  const double n = static_cast<double>(std::max<size_t>(all.size(), 1));
  const LatencySummary latency = Summarize(latency_ms);
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const uint64_t programs = (all.size() + kBurst - 1) / kBurst;
  if (!config.trace) {
    AddEndToEnd(out.metrics, static_cast<double>(all.size()) / timed_s,
                latency, ratio(static_cast<double>(unknown),
                               static_cast<double>(contains)),
                static_cast<double>(errors) / n, cpu_s * 1e3 / n,
                probe_rss.load() > 0 ? probe_rss.load() : PeakRssMb(),
                Median(setup));
  } else {
    AddPerLayerDefaults(out.metrics);
    auto set = [&](const char* name, double value) {
      out.metrics[name].value = value;
    };
    // Per-request EngineStats from the wire, summed. The governor counter
    // is a snapshot of the server-wide root governor, so its growth over
    // the run is the work done.
    std::array<double, kWireFieldCount> sum{};
    double checks_min = 0, checks_max = 0, batch = 0;
    for (const Sample& s : all) {
      for (size_t f = 0; f < kWireFieldCount; ++f) sum[f] += s.wire[f];
      const double checks = s.wire[kChecks];
      if (checks > 0) {
        checks_min = checks_min == 0 ? checks : std::min(checks_min, checks);
        checks_max = std::max(checks_max, checks);
      }
      batch += s.batch_size;
    }
    set("cache.hit_ratio", ratio(sum[kHits], sum[kLookups]));
    set("cache.misses_per_program",
        ratio(sum[kMisses], static_cast<double>(programs)));
    set("cache.inserts_per_request", sum[kInserts] / n);
    set("base.governor_checks_per_request", (checks_max - checks_min) / n);
    set("rewrite.queries_generated", sum[kQueries] / n);
    set("rewrite.steps", (sum[kRewriteSteps] + sum[kFactorSteps]) / n);
    set("rewrite.dedup_hits", sum[kDedup] / n);
    set("rewrite.subsumption_prunes", sum[kPrunes] / n);
    set("rewrite.prunes_per_query", ratio(sum[kPrunes], sum[kQueries]));
    set("logic.hom_searches", sum[kHomSearches] / n);
    set("logic.hom_steps", sum[kHomSteps] / n);
    set("logic.hom_candidates_scanned", sum[kHomScanned] / n);
    set("chase.steps", sum[kChaseSteps] / n);
    set("chase.atoms_derived", sum[kChaseAtoms] / n);
    set("chase.redundant_trigger_ratio",
        ratio(sum[kRedundant], sum[kTriggers]));
    set("core.candidates_per_request", sum[kCandidates] / n);
    set("core.budget_exhaustions", sum[kExhaustions] / n);
    set("server.admission_wait_us", Median(wait_us));
    set("server.exec_us", Median(exec_us));
    set("server.batch_size_mean", batch / n);
    double call_us = 0;
    for (const Tracer& t : tracers) {
      call_us += t.TotalsByName()["server.call"].total_us;
    }
    set("trace.request_ms", call_us / n / 1e3);
    if (!config.trace_path.empty()) {
      for (size_t c = 0; c < tracers.size(); ++c) {
        if (!tracers[c].AppendJsonLines(config.trace_path,
                                        static_cast<int>(c))) {
          Fail("cannot write spans to " + config.trace_path);
        }
      }
    }
  }

  // Cache misses per program over the first bursts, for the determinism
  // self-test (deterministic with one client).
  std::string misses_json = "[";
  if (config.trace) {
    for (uint64_t p = 0; p < std::min<uint64_t>(programs, 16); ++p) {
      double m = 0;
      for (uint64_t i = p * kBurst; i < std::min<uint64_t>((p + 1) * kBurst,
                                                          all.size());
           ++i) {
        m += all[i].wire[kMisses];
      }
      misses_json += StrCat(p == 0 ? "" : ", ", m);
    }
  }
  misses_json += "]";
  out.detail_json = StrCat(
      "{\"requests\": ", all.size(), ", \"errors\": ", errors,
      ", \"wrong_answers\": ", wrong, ", \"contain_requests\": ", contains,
      ", \"unknown\": ", unknown, ", \"programs\": ", programs,
      ", \"cache_misses_per_program\": ", misses_json,
      ", \"tail_percentile\": ", latency.tail_percentile,
      ", \"tail_beyond\": ", latency.beyond_tail,
      ", \"latency_samples\": ", latency.samples, ", \"timed_s\": ", timed_s,
      ", \"clients\": ", clients, ", \"peak_rss_mb_at_end\": ", PeakRssMb(),
      ", \"setup_s\": [", JoinNumbers(setup), "]}");
  return out;
}

}  // namespace e2e
