// omqc_soak — differential soak harness over the scenario factory.
//
// Usage:
//   omqc_soak [--seed=S] [--count=N] [flags]
//
// Streams factory scenarios (src/soak/scenario.h) through every engine
// configuration that claims identical verdicts — containment over a
// shared cache ("cached"), cache-off ("nocache"), governed-with-random-
// budgets (trip → ungoverned retry), and a live in-process OmqServer
// reached over real TCP with the retrying client — then cross-checks all
// pairs plus the construction polarity oracle (src/soak/differential.h).
// A discrepancy is minimized (src/soak/minimize.h) and written as a
// self-contained repro file replayable with
// `omqc_cli contain <repro> Q1 Q2`.
//
// Flags:
//   --seed=S          master scenario stream (default 1). Same seed and
//                     count → bit-for-bit identical stdout.
//   --count=N         scenarios to run (default 100)
//   --server=on|off   include the live-server config (default on)
//   --governed=on|off include the governed config (default on)
//   --rewrite-budget=N  rewriting budget per config (default 120; cost
//                     is superlinear in this on walk-heavy scenarios)
//   --minimize=on|off minimize discrepancies (default on)
//   --repro-dir=PATH  where repro files land (default ".")
//   --max-repros=N    stop minimizing after N repros (default 3)
//   --persist-dir=PATH  include the persistent-cache config: containment
//                     over an OmqCache backed by PATH, warm-reloaded
//                     (flush + close + reopen from disk) every 25
//                     scenarios so later scenarios exercise artifacts
//                     decoded from segments written by earlier ones
//   --fail-fast       exit at the first discrepancy
//   --plant-flip=CFG  test hook: flip config CFG's definite verdict (e.g.
//                     "cached") — every scenario then fails, proving
//                     the harness catches and shrinks a verdict bug
//
// Determinism contract: stdout (scenario lines + summary) is a pure
// function of the flags. Wall-clock-dependent tallies — governed-config
// retries, client reconnects/backoffs — go to stderr only.
//
// Exit status: 0 all scenarios agreed, 1 discrepancies, 2 bad flags.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/frontend.h"
#include "server/client.h"
#include "server/server.h"
#include "soak/differential.h"
#include "soak/minimize.h"
#include "soak/scenario.h"

using namespace omqc;

namespace {

bool ParseUintFlag(const std::string& arg, const std::string& name,
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

bool ParseOnOffFlag(const std::string& arg, const std::string& name,
                    bool* out, bool* ok) {
  std::string prefix = name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  std::string value = arg.substr(prefix.size());
  if (value == "on") {
    *out = true;
  } else if (value == "off") {
    *out = false;
  } else {
    std::fprintf(stderr, "%s expects on|off, got '%s'\n", name.c_str(),
                 value.c_str());
    *ok = false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  uint64_t count = 100;
  uint64_t rewrite_budget = 120;
  uint64_t max_repros = 3;
  bool with_server = true;
  bool with_governed = true;
  bool minimize = true;
  bool fail_fast = false;
  std::string repro_dir = ".";
  std::string plant_flip;
  std::string persist_dir;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool ok = true;
    if (ParseUintFlag(arg, "--seed", &seed, &ok) ||
        ParseUintFlag(arg, "--count", &count, &ok) ||
        ParseUintFlag(arg, "--rewrite-budget", &rewrite_budget, &ok) ||
        ParseUintFlag(arg, "--max-repros", &max_repros, &ok) ||
        ParseOnOffFlag(arg, "--server", &with_server, &ok) ||
        ParseOnOffFlag(arg, "--governed", &with_governed, &ok) ||
        ParseOnOffFlag(arg, "--minimize", &minimize, &ok)) {
      if (!ok) return 2;
      continue;
    }
    if (arg == "--fail-fast") {
      fail_fast = true;
      continue;
    }
    if (arg.rfind("--repro-dir=", 0) == 0) {
      repro_dir = arg.substr(12);
      continue;
    }
    if (arg.rfind("--plant-flip=", 0) == 0) {
      plant_flip = arg.substr(13);
      continue;
    }
    if (arg.rfind("--persist-dir=", 0) == 0) {
      persist_dir = arg.substr(14);
      continue;
    }
    std::fprintf(stderr,
                 "unknown flag '%s'\nusage: %s [--seed=S] [--count=N] "
                 "[--server=on|off] [--governed=on|off] "
                 "[--rewrite-budget=N] [--minimize=on|off] "
                 "[--repro-dir=PATH] [--max-repros=N] [--fail-fast] "
                 "[--plant-flip=CFG] [--persist-dir=PATH]\n",
                 arg.c_str(), argv[0]);
    return 2;
  }

  // The live-server config: a real daemon on an ephemeral TCP port,
  // reached through the retrying client (soak keeps hammering it while
  // the kernel is still standing the listener up).
  std::unique_ptr<OmqServer> server;
  std::unique_ptr<OmqClient> client;
  if (with_server) {
    server = std::make_unique<OmqServer>(ServerConfig());
    auto port = server->ListenAndStart(0);
    if (!port.ok()) {
      std::fprintf(stderr, "error: server start: %s\n",
                   port.status().ToString().c_str());
      return 2;
    }
    RetryPolicy policy;
    policy.max_attempts = 5;
    policy.jitter_seed = seed;
    auto connected = OmqClient::Connect("127.0.0.1", *port, policy);
    if (!connected.ok()) {
      std::fprintf(stderr, "error: client connect: %s\n",
                   connected.status().ToString().c_str());
      return 2;
    }
    client = std::make_unique<OmqClient>(std::move(*connected));
  }

  OmqCache cache;  // shared by the cached configs, across scenarios

  // Persistent-cache config: a disk-backed cache warm-reloaded (flush +
  // close + reopen) every kPersistReloadEvery scenarios, so the configs
  // after a reload run over artifacts decoded from disk segments rather
  // than the in-memory originals.
  constexpr uint64_t kPersistReloadEvery = 25;
  std::unique_ptr<OmqCache> persist_store;
  auto open_persist = [&]() -> bool {
    auto store = OmqCache::Open(OmqCacheConfig(), persist_dir);
    if (!store.ok()) {
      std::fprintf(stderr, "error: --persist-dir: %s\n",
                   store.status().ToString().c_str());
      return false;
    }
    persist_store = std::move(store).value();
    return true;
  };
  if (!persist_dir.empty() && !open_persist()) return 2;

  SplitMix64 fault_master = SplitMix64(seed).Fork(0xFA);

  uint64_t discrepancies = 0;
  uint64_t unknowns = 0;
  uint64_t repros_written = 0;
  uint64_t governed_retries = 0;
  for (uint64_t i = 0; i < count; ++i) {
    ScenarioSpec spec = SpecForIndex(seed, i);
    Scenario scenario = MakeScenario(spec);

    if (persist_store != nullptr && i > 0 && i % kPersistReloadEvery == 0) {
      persist_store->Flush();
      persist_store.reset();  // close before reopening the same directory
      if (!open_persist()) return 2;
    }

    DifferentialOptions options;
    options.rewrite_max_queries = static_cast<size_t>(rewrite_budget);
    options.cache = &cache;
    options.persist_cache = persist_store.get();
    if (with_governed) {
      uint64_t fault_seed = fault_master.Next();
      options.fault_seed = fault_seed == 0 ? 1 : fault_seed;
    }
    options.client = client.get();
    options.flip_config = plant_flip;
    auto verdict = RunDifferential(scenario, options);
    if (!verdict.ok()) {
      std::printf("scenario %06llu %s ERROR %s\n",
                  static_cast<unsigned long long>(i),
                  spec.ToString().c_str(),
                  verdict.status().ToString().c_str());
      ++discrepancies;
      if (fail_fast) break;
      continue;
    }
    for (const ConfigOutcome& co : verdict->outcomes) {
      if (co.governed_retry) ++governed_retries;
    }
    if (verdict->agreed == ContainmentOutcome::kUnknown) ++unknowns;

    if (!verdict->discrepancy) {
      std::printf("scenario %06llu %s verdict=%s ok\n",
                  static_cast<unsigned long long>(i),
                  spec.ToString().c_str(),
                  ContainmentOutcomeToString(verdict->agreed));
      continue;
    }

    ++discrepancies;
    std::printf("scenario %06llu %s DISCREPANCY %s\n",
                static_cast<unsigned long long>(i), spec.ToString().c_str(),
                verdict->description.c_str());

    if (minimize && repros_written < max_repros) {
      // Minimization predicate: the configs still disagree on the
      // mutated program. The construction oracles are off — deleting
      // tgds/facts voids the certificates — so only config-vs-config
      // disagreement keeps a deletion.
      DifferentialOptions probe_options = options;
      probe_options.expected.reset();
      probe_options.expected_class.reset();
      probe_options.witness.clear();
      // Don't pollute the on-disk store with mutated-candidate artifacts.
      probe_options.persist_cache = nullptr;
      MinimizeStats stats;
      Program minimized = MinimizeProgram(
          scenario.program,
          [&probe_options](const Program& candidate) {
            auto probe = RunDifferential(candidate, probe_options);
            return probe.ok() && probe->discrepancy;
          },
          &stats);
      std::string path = repro_dir + "/soak_repro_" + std::to_string(i) +
                         ".dlgp";
      std::string header =
          "soak repro: " + verdict->description + "\n" +
          "from: --seed=" + std::to_string(seed) + " scenario " +
          std::to_string(i) + " (" + spec.ToString() + ")\n" +
          "replay: omqc_cli contain " + path + " Q1 Q2";
      std::ofstream out(path);
      out << RenderRepro(minimized, header);
      out.close();
      ++repros_written;
      std::printf(
          "  minimized %llu->%llu tgds, %llu->%llu facts, %llu->%llu query "
          "atoms (%llu probes); repro: %s\n",
          static_cast<unsigned long long>(stats.initial_tgds),
          static_cast<unsigned long long>(stats.final_tgds),
          static_cast<unsigned long long>(stats.initial_facts),
          static_cast<unsigned long long>(stats.final_facts),
          static_cast<unsigned long long>(stats.initial_query_atoms),
          static_cast<unsigned long long>(stats.final_query_atoms),
          static_cast<unsigned long long>(stats.probes), path.c_str());
    }
    if (fail_fast) break;
  }

  std::printf("soak: %llu scenarios, %llu discrepancies, %llu unknown\n",
              static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(discrepancies),
              static_cast<unsigned long long>(unknowns));
  // Wall-clock-dependent tallies: stderr only, never in the deterministic
  // stream above.
  std::fprintf(stderr, "soak: governed retries=%llu\n",
               static_cast<unsigned long long>(governed_retries));
  if (client != nullptr) {
    std::fprintf(
        stderr, "soak: client reconnects=%llu backoffs=%llu\n",
        static_cast<unsigned long long>(client->retry_counters().reconnects),
        static_cast<unsigned long long>(client->retry_counters().backoffs));
  }
  if (persist_store != nullptr) {
    OmqCacheStats pstats = persist_store->Stats();
    std::fprintf(stderr,
                 "soak: persist hits=%llu writes=%llu entries=%llu "
                 "corrupt=%llu\n",
                 static_cast<unsigned long long>(
                     pstats.counters.persist_hits),
                 static_cast<unsigned long long>(
                     pstats.counters.persist_writes),
                 static_cast<unsigned long long>(pstats.persist_entries),
                 static_cast<unsigned long long>(
                     pstats.persist_corrupt_records));
    persist_store.reset();  // flushes
  }
  if (server != nullptr) {
    client.reset();
    server->Shutdown();
  }
  return discrepancies == 0 ? 0 : 1;
}
