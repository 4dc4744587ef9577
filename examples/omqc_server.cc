// omqc_server — the containment-as-a-service daemon.
//
// Usage:
//   omqc_server [--port=N] [--address=A] [--port-file=PATH] [flags]
//
// Serves the omqc wire protocol (src/server/wire.h): eval / contain /
// classify requests with per-request deadlines and memory budgets,
// per-tenant governor and concurrency quotas (src/server/tenant.h) and a
// STATS metrics endpoint. Each admitted request goes straight to the
// worker pool (src/server/server.h).
//
// Daemon flags:
//   --port=N               listen port (default 0 = kernel-assigned;
//                          printed on stdout and written to --port-file)
//   --address=A            bind address (default 127.0.0.1)
//   --port-file=PATH       write the bound port to PATH (for scripts
//                          racing daemon startup)
//   --tenant-memory-mb=N   per-tenant memory quota (default 0 = none)
//   --tenant-deadline-ms=N per-tenant default request deadline
//                          (default 0 = none)
//   --tenant-max-concurrent=N  per-tenant concurrent-request cap; excess
//                          requests queue FIFO instead of tripping
//                          (default 0 = unlimited)
//   --contain-threads=N    intra-request containment parallelism
//                          (default 1; the pool parallelizes across
//                          requests)
//
// Shared engine flags (src/core/frontend.h): --threads=N sizes the worker
// pool (0 = hardware concurrency), --cache-capacity / --cache=on|off shape
// the shared compilation cache, --cache-dir=PATH warm-starts the cache
// from a persistent artifact store at boot and flushes new compilations
// back on drain (an unusable directory degrades to memory-only),
// --deadline-ms / --max-memory-mb set the server-wide request default
// deadline and total memory budget, --chase picks the chase strategy.
// --stats-json prints the final metrics document on shutdown.
//
// The daemon runs until a kShutdown request or SIGINT/SIGTERM, then
// drains: running requests finish, requests still waiting on a tenant
// quota are answered kCancelled, sessions join, the cache flushes.

#include <csignal>
#include <cstdio>
#include <string>

#include "core/frontend.h"
#include "server/server.h"

using namespace omqc;

namespace {

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int) { g_signal = 1; }

/// Binary-specific numeric flag: "--name=value" into `out`, strict parse.
/// Returns true when `arg` matched `name` (error reported via `ok`).
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
  EngineFlags flags;
  flags.threads = 0;  // daemon default: hardware concurrency
  uint64_t port = 0;
  uint64_t tenant_memory_mb = 0;
  uint64_t tenant_deadline_ms = 0;
  uint64_t tenant_max_concurrent = 0;
  uint64_t contain_threads = 1;
  std::string address = "127.0.0.1";
  std::string port_file;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto consumed = ParseEngineFlag(arg, &flags);
    if (!consumed.ok()) {
      std::fprintf(stderr, "%s\n", consumed.status().message().c_str());
      return 2;
    }
    if (*consumed) continue;
    bool ok = true;
    if (ParseLocalFlag(arg, "--port", &port, &ok) ||
        ParseLocalFlag(arg, "--tenant-memory-mb", &tenant_memory_mb, &ok) ||
        ParseLocalFlag(arg, "--tenant-deadline-ms", &tenant_deadline_ms,
                       &ok) ||
        ParseLocalFlag(arg, "--tenant-max-concurrent",
                       &tenant_max_concurrent, &ok) ||
        ParseLocalFlag(arg, "--contain-threads", &contain_threads, &ok)) {
      if (!ok) return 2;
      continue;
    }
    if (arg.rfind("--address=", 0) == 0) {
      address = arg.substr(10);
      continue;
    }
    if (arg.rfind("--port-file=", 0) == 0) {
      port_file = arg.substr(12);
      continue;
    }
    std::fprintf(stderr,
                 "unknown flag '%s'\nusage: %s [--port=N] [--address=A] "
                 "[--port-file=PATH] [--tenant-memory-mb=N] [--tenant-deadline-ms=N] "
                 "[--tenant-max-concurrent=N] [--contain-threads=N] %s\n",
                 arg.c_str(), argv[0], EngineFlagsUsage());
    return 2;
  }
  if (port > 65535) {
    std::fprintf(stderr, "--port=%llu out of range\n",
                 static_cast<unsigned long long>(port));
    return 2;
  }

  ServerConfig config;
  config.listen_address = address;
  config.worker_threads = flags.threads;
  config.cache_capacity = flags.cache ? flags.cache_capacity : 0;
  config.cache_dir = flags.cache ? flags.cache_dir : "";
  config.default_deadline_ms = flags.deadline_ms;
  config.server_memory_budget_bytes = flags.max_memory_mb << 20;
  config.tenant_quota.memory_quota_bytes =
      static_cast<size_t>(tenant_memory_mb) << 20;
  config.tenant_quota.default_deadline_ms = tenant_deadline_ms;
  config.tenant_quota.max_concurrent = tenant_max_concurrent;
  config.contain_threads = static_cast<size_t>(contain_threads);
  config.chase = flags.chase;

  OmqServer server(std::move(config));
  auto bound = server.ListenAndStart(static_cast<uint16_t>(port));
  if (!bound.ok()) {
    std::fprintf(stderr, "error: %s\n", bound.status().ToString().c_str());
    return 1;
  }
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write --port-file=%s\n",
                   port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", *bound);
    std::fclose(f);
  }
  std::printf("omqc_server listening on %s:%u\n", address.c_str(), *bound);
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!server.WaitForShutdownRequest(std::chrono::milliseconds(200))) {
    if (g_signal != 0) break;
  }

  server.Shutdown();
  if (flags.stats_json) std::printf("%s\n", server.StatsJson().c_str());
  std::printf("omqc_server: clean shutdown\n");
  return 0;
}
