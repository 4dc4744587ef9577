// omqc_load — load driver and latency benchmark for omqc_server.
//
// Generates a seedable mixed workload (eval / contain / classify over
// several random ontologies from src/generators), replays it against a
// daemon at target concurrency, and reports p50/p99 latency and RPS for a
// cold pass (first contact: every compilation is a cache miss) and a warm
// pass (same requests again: the shared cache is hot).
//
// Usage:
//   omqc_load --port=N [--host=H] [flags]         drive a running daemon
//   omqc_load --inprocess [flags]                 self-contained (spawns
//                                                 an in-process server)
//
// Flags:
//   --requests=N       requests per pass (default 60)
//   --concurrency=C    client connections/threads (default 4)
//   --ontologies=K     distinct ontologies in the mix (default 4)
//   --tenants=T        tenant ids cycled through (default 2)
//   --seed=S           workload seed (default 1)
//   --json=PATH        write google-benchmark-format JSON (for
//                      scripts/check_bench_guardrail.py)
//   --label=NAME       benchmark name prefix (default server_mixed)
//   --verify           assert every response is kOk and responses for the
//                      same request are identical across passes
//   --dump-dir=DIR     write each ontology program, the first response
//                      body per request shape, and manifest.tsv mapping
//                      omqc_cli command lines to expected outputs (the CI
//                      smoke job diffs CLI output against these)
//   --server-threads=N worker threads for --inprocess (default 4)
//
// Exit codes: 0 success, 1 transport/verification failure, 2 usage.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/json_writer.h"
#include "core/frontend.h"
#include "generators/families.h"
#include "logic/substitution.h"
#include "server/client.h"
#include "server/server.h"
#include "tgd/parser.h"

using namespace omqc;

namespace {

using Clock = std::chrono::steady_clock;

struct LoadOntology {
  std::string stem;  ///< onto_<i>
  std::string text;  ///< DLGP program: tgds, queries Q/Q2, facts
};

/// One request shape of the workload. `combo` keys verification groups:
/// every request with the same combo must produce the same body.
struct LoadRequest {
  RequestType type = RequestType::kEval;
  int ontology = 0;
  std::string query;
  std::string query2;
  std::string tenant;
  std::string combo;
};

/// A relaxation of `q` (drop the last body atom when every answer
/// variable survives) — gives the contain mix both verdicts instead of
/// only reflexive containments.
ConjunctiveQuery RelaxQuery(const ConjunctiveQuery& q) {
  if (q.body.size() < 2) return q;
  std::vector<Atom> body(q.body.begin(), q.body.end() - 1);
  for (const Term& v : q.answer_vars) {
    if (!v.IsVariable()) continue;
    bool found = false;
    for (const Atom& atom : body) {
      for (const Term& t : atom.args) {
        if (t == v) {
          found = true;
          break;
        }
      }
      if (found) break;
    }
    if (!found) return q;  // relaxation would unbind an answer variable
  }
  return ConjunctiveQuery(q.answer_vars, std::move(body));
}

std::vector<LoadOntology> MakeOntologies(int count, uint32_t seed) {
  const TgdClass classes[] = {TgdClass::kLinear, TgdClass::kSticky,
                              TgdClass::kNonRecursive};
  std::vector<LoadOntology> out;
  out.reserve(count);
  for (int i = 0; i < count; ++i) {
    RandomOmqConfig config;
    config.target = classes[i % 3];
    config.seed = seed + static_cast<uint32_t>(i);
    config.num_tgds = 3 + i % 3;
    config.query_atoms = 2 + i % 2;
    Omq omq = MakeRandomOmq(config);

    Program program;
    program.tgds = omq.tgds;
    program.queries.push_back({"Q", omq.query});
    program.queries.push_back({"Q2", RelaxQuery(omq.query)});
    // Ground the query body into facts so eval has at least one certain
    // answer and the homomorphism search does real work.
    Substitution grounding;
    std::vector<Term> vars = omq.query.Variables();
    for (size_t v = 0; v < vars.size(); ++v) {
      grounding.Bind(vars[v], Term::Constant("k" + std::to_string(v)));
    }
    program.facts = Database(grounding.Apply(omq.query.body));

    LoadOntology onto;
    onto.stem = "onto_" + std::to_string(i);
    onto.text = SerializeProgram(program);
    out.push_back(std::move(onto));
  }
  return out;
}

std::vector<LoadRequest> MakeRequests(int count, int ontologies,
                                      int tenants) {
  std::vector<LoadRequest> out;
  out.reserve(count);
  for (int i = 0; i < count; ++i) {
    LoadRequest req;
    req.ontology = i % ontologies;
    req.tenant = "t" + std::to_string(i % tenants);
    switch (i % 3) {
      case 0:
        req.type = RequestType::kEval;
        req.query = "Q";
        break;
      case 1:
        req.type = RequestType::kContain;
        // Alternate directions so the mix sees both verdicts.
        if ((i / 3) % 2 == 0) {
          req.query = "Q";
          req.query2 = "Q2";
        } else {
          req.query = "Q2";
          req.query2 = "Q";
        }
        break;
      default:
        req.type = RequestType::kClassify;
        break;
    }
    req.combo = std::string(RequestTypeToString(req.type)) + "_" +
                std::to_string(req.ontology) +
                (req.query2.empty() ? "" : "_" + req.query + "_" +
                                               req.query2);
    out.push_back(std::move(req));
  }
  return out;
}

struct PassResult {
  std::vector<uint64_t> latencies_us;  ///< per completed request
  double wall_seconds = 0;
  uint64_t errors = 0;  ///< transport failures or non-kOk responses
};

struct Percentiles {
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  double mean = 0;
};

Percentiles ComputePercentiles(std::vector<uint64_t> lat) {
  Percentiles p;
  if (lat.empty()) return p;
  std::sort(lat.begin(), lat.end());
  p.p50 = lat[lat.size() / 2];
  p.p99 = lat[std::min(lat.size() - 1, (lat.size() * 99) / 100)];
  uint64_t total = 0;
  for (uint64_t v : lat) total += v;
  p.mean = static_cast<double>(total) / static_cast<double>(lat.size());
  return p;
}

class LoadDriver {
 public:
  LoadDriver(std::vector<LoadOntology> ontologies,
             std::vector<LoadRequest> requests, int concurrency)
      : ontologies_(std::move(ontologies)),
        requests_(std::move(requests)),
        concurrency_(concurrency),
        bodies_(requests_.size()) {}

  /// Connection factory: TCP or in-process, one per worker thread.
  using ConnectFn = std::function<Result<OmqClient>()>;

  PassResult RunPass(const ConnectFn& connect) {
    PassResult result;
    result.latencies_us.resize(requests_.size(), 0);
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> errors{0};
    std::vector<std::thread> workers;
    Clock::time_point start = Clock::now();
    for (int w = 0; w < concurrency_; ++w) {
      workers.emplace_back([&] {
        auto client = connect();
        if (!client.ok()) {
          std::fprintf(stderr, "connect: %s\n",
                       client.status().ToString().c_str());
          errors.fetch_add(requests_.size(), std::memory_order_relaxed);
          next.store(requests_.size(), std::memory_order_release);
          return;
        }
        for (;;) {
          size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= requests_.size()) return;
          const LoadRequest& req = requests_[i];
          WireRequest wire;
          wire.type = req.type;
          wire.tenant = req.tenant;
          wire.program = ontologies_[req.ontology].text;
          wire.query = req.query;
          wire.query2 = req.query2;
          Clock::time_point t0 = Clock::now();
          auto response = client->Call(std::move(wire));
          Clock::time_point t1 = Clock::now();
          result.latencies_us[i] = static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(t1 -
                                                                    t0)
                  .count());
          if (!response.ok()) {
            std::fprintf(stderr, "request %zu: %s\n", i,
                         response.status().ToString().c_str());
            errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (response->code != StatusCode::kOk) {
            std::fprintf(stderr, "request %zu (%s): %s: %s\n", i,
                         req.combo.c_str(),
                         StatusCodeToString(response->code),
                         response->message.c_str());
            errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          std::lock_guard<std::mutex> lock(bodies_mu_);
          bodies_[i].push_back(response->body);
        }
      });
    }
    for (std::thread& t : workers) t.join();
    result.wall_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    result.errors = errors.load(std::memory_order_acquire);
    return result;
  }

  /// Every response for the same request shape must be identical — across
  /// workers, passes and batch assignments. Returns mismatch count.
  uint64_t VerifyConsistency() {
    std::lock_guard<std::mutex> lock(bodies_mu_);
    uint64_t mismatches = 0;
    std::map<std::string, const std::string*> reference;
    for (size_t i = 0; i < requests_.size(); ++i) {
      for (const std::string& body : bodies_[i]) {
        auto [it, inserted] =
            reference.emplace(requests_[i].combo, &body);
        if (!inserted && *it->second != body) {
          std::fprintf(stderr,
                       "verify: request %zu (%s) body diverged\n--- "
                       "first ---\n%s--- this ---\n%s",
                       i, requests_[i].combo.c_str(),
                       it->second->c_str(), body.c_str());
          ++mismatches;
        }
      }
    }
    return mismatches;
  }

  /// Writes programs, expected bodies and a manifest for CLI diffing.
  bool Dump(const std::string& dir) {
    std::lock_guard<std::mutex> lock(bodies_mu_);
    auto write_file = [&](const std::string& name,
                          const std::string& content) {
      std::string path = dir + "/" + name;
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
      }
      std::fwrite(content.data(), 1, content.size(), f);
      std::fclose(f);
      return true;
    };
    for (const LoadOntology& onto : ontologies_) {
      if (!write_file(onto.stem + ".dlgp", onto.text)) return false;
    }
    std::string manifest;
    std::map<std::string, bool> seen;
    for (size_t i = 0; i < requests_.size(); ++i) {
      if (bodies_[i].empty()) continue;
      const LoadRequest& req = requests_[i];
      if (!seen.emplace(req.combo, true).second) continue;
      std::string resp_file = "resp_" + req.combo + ".txt";
      if (!write_file(resp_file, bodies_[i].front())) return false;
      // "-" placeholders keep the column count fixed for shell `read`
      // consumers (empty tab-separated fields collapse under IFS).
      manifest += std::string(RequestTypeToString(req.type)) + "\t" +
                  ontologies_[req.ontology].stem + ".dlgp\t" +
                  (req.query.empty() ? "-" : req.query) + "\t" +
                  (req.query2.empty() ? "-" : req.query2) + "\t" +
                  resp_file + "\n";
    }
    return write_file("manifest.tsv", manifest);
  }

 private:
  std::vector<LoadOntology> ontologies_;
  std::vector<LoadRequest> requests_;
  int concurrency_;
  std::mutex bodies_mu_;
  std::vector<std::vector<std::string>> bodies_;  ///< per request index
};

void AppendBenchEntry(JsonWriter& w, const std::string& name,
                      double real_time_us, double rps) {
  w.BeginObject();
  w.Field("name", name);
  w.Field("run_name", name);
  w.Field("run_type", "iteration");
  w.Field("repetitions", uint64_t{1});
  w.Field("repetition_index", uint64_t{0});
  w.Field("threads", uint64_t{1});
  w.Field("iterations", uint64_t{1});
  w.Field("real_time", real_time_us);
  w.Field("cpu_time", real_time_us);
  w.Field("time_unit", "us");
  if (rps > 0) w.Field("items_per_second", rps);
  w.EndObject();
}

bool ParseLocalFlag(const std::string& arg, const std::string& name,
                    uint64_t* out, bool* ok) {
  std::string prefix = name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  auto value = ParseUnsignedFlagValue(name, arg.substr(prefix.size()));
  if (!value.ok()) {
    std::fprintf(stderr, "%s\n", value.status().message().c_str());
    *ok = false;
    return true;
  }
  *out = *value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t port = 0;
  uint64_t requests = 60;
  uint64_t concurrency = 4;
  uint64_t ontologies = 4;
  uint64_t tenants = 2;
  uint64_t seed = 1;
  uint64_t server_threads = 4;
  std::string host = "127.0.0.1";
  std::string json_path;
  std::string label = "server_mixed";
  std::string dump_dir;
  bool inprocess = false;
  bool verify = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool ok = true;
    if (ParseLocalFlag(arg, "--port", &port, &ok) ||
        ParseLocalFlag(arg, "--requests", &requests, &ok) ||
        ParseLocalFlag(arg, "--concurrency", &concurrency, &ok) ||
        ParseLocalFlag(arg, "--ontologies", &ontologies, &ok) ||
        ParseLocalFlag(arg, "--tenants", &tenants, &ok) ||
        ParseLocalFlag(arg, "--seed", &seed, &ok) ||
        ParseLocalFlag(arg, "--server-threads", &server_threads, &ok)) {
      if (!ok) return 2;
      continue;
    }
    if (arg.rfind("--host=", 0) == 0) {
      host = arg.substr(7);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--label=", 0) == 0) {
      label = arg.substr(8);
    } else if (arg.rfind("--dump-dir=", 0) == 0) {
      dump_dir = arg.substr(11);
    } else if (arg == "--inprocess") {
      inprocess = true;
    } else if (arg == "--verify") {
      verify = true;
    } else {
      std::fprintf(
          stderr,
          "unknown flag '%s'\nusage: %s --port=N [--host=H] | --inprocess "
          "[--requests=N] [--concurrency=C] [--ontologies=K] [--tenants=T] "
          "[--seed=S] [--json=PATH] [--label=NAME] [--verify] "
          "[--dump-dir=DIR] [--server-threads=N]\n",
          arg.c_str(), argv[0]);
      return 2;
    }
  }
  if (!inprocess && (port == 0 || port > 65535)) {
    std::fprintf(stderr, "need --port=N (1-65535) or --inprocess\n");
    return 2;
  }
  if (requests == 0 || concurrency == 0 || ontologies == 0 ||
      tenants == 0) {
    std::fprintf(stderr,
                 "--requests/--concurrency/--ontologies/--tenants must be "
                 "positive\n");
    return 2;
  }

  LoadDriver driver(
      MakeOntologies(static_cast<int>(ontologies),
                     static_cast<uint32_t>(seed)),
      MakeRequests(static_cast<int>(requests), static_cast<int>(ontologies),
                   static_cast<int>(tenants)),
      static_cast<int>(concurrency));

  std::unique_ptr<OmqServer> local_server;
  LoadDriver::ConnectFn connect;
  if (inprocess) {
    ServerConfig config;
    config.worker_threads = static_cast<size_t>(server_threads);
    local_server = std::make_unique<OmqServer>(std::move(config));
    connect = [&local_server]() -> Result<OmqClient> {
      OMQC_ASSIGN_OR_RETURN(OwnedFd fd, local_server->ConnectInProcess());
      return OmqClient(std::move(fd));
    };
  } else {
    connect = [&host, port]() {
      return OmqClient::Connect(host, static_cast<uint16_t>(port));
    };
  }

  // Cold pass: first contact, every compilation is a cache miss (assumes
  // a freshly started daemon). Warm pass: identical requests again.
  PassResult cold = driver.RunPass(connect);
  PassResult warm = driver.RunPass(connect);

  uint64_t mismatches = 0;
  if (verify) mismatches = driver.VerifyConsistency();
  if (!dump_dir.empty() && !driver.Dump(dump_dir)) return 1;
  if (local_server != nullptr) local_server->Shutdown();

  Percentiles cold_p = ComputePercentiles(cold.latencies_us);
  Percentiles warm_p = ComputePercentiles(warm.latencies_us);
  double cold_rps = cold.wall_seconds > 0
                        ? static_cast<double>(requests) / cold.wall_seconds
                        : 0;
  double warm_rps = warm.wall_seconds > 0
                        ? static_cast<double>(requests) / warm.wall_seconds
                        : 0;

  std::printf(
      "%s: %llu requests x2 passes, concurrency %llu, %llu ontologies, "
      "%llu tenants, seed %llu\n"
      "  cold: p50 %llu us, p99 %llu us, mean %.0f us, %.1f req/s\n"
      "  warm: p50 %llu us, p99 %llu us, mean %.0f us, %.1f req/s\n"
      "  errors: %llu cold, %llu warm; verify mismatches: %llu\n",
      label.c_str(), static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(concurrency),
      static_cast<unsigned long long>(ontologies),
      static_cast<unsigned long long>(tenants),
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(cold_p.p50),
      static_cast<unsigned long long>(cold_p.p99), cold_p.mean, cold_rps,
      static_cast<unsigned long long>(warm_p.p50),
      static_cast<unsigned long long>(warm_p.p99), warm_p.mean, warm_rps,
      static_cast<unsigned long long>(cold.errors),
      static_cast<unsigned long long>(warm.errors),
      static_cast<unsigned long long>(mismatches));

  if (!json_path.empty()) {
    JsonWriter w;
    w.BeginObject();
    w.BeginObject("context");
    w.Field("executable", "omqc_load");
    w.Field("num_requests", requests);
    w.Field("concurrency", concurrency);
    w.Field("num_ontologies", ontologies);
    w.Field("num_tenants", tenants);
    w.Field("seed", seed);
    w.Field("num_cpus", static_cast<int>(std::thread::hardware_concurrency()));
    w.Field("build_type", OMQC_BUILD_TYPE);
    w.EndObject();
    w.BeginArray("benchmarks");
    AppendBenchEntry(w, label + "/cold/p50",
                     static_cast<double>(cold_p.p50), 0);
    AppendBenchEntry(w, label + "/cold/p99",
                     static_cast<double>(cold_p.p99), 0);
    AppendBenchEntry(w, label + "/cold/mean", cold_p.mean, cold_rps);
    AppendBenchEntry(w, label + "/warm/p50",
                     static_cast<double>(warm_p.p50), 0);
    AppendBenchEntry(w, label + "/warm/p99",
                     static_cast<double>(warm_p.p99), 0);
    AppendBenchEntry(w, label + "/warm/mean", warm_p.mean, warm_rps);
    w.EndArray();
    w.EndObject();
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    const std::string& doc = w.str();
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }

  bool failed = cold.errors + warm.errors > 0 || mismatches > 0;
  return failed ? 1 : 0;
}
