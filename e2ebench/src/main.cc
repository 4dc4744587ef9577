// e2ebench — end-to-end containment benchmark for omqc.
//
// Usage:
//   e2ebench --workload decide_ucq|decide_guarded|serve_burst --seed N
//            --seconds S --trace 0|1 [--requests N] [--clients N]
//            [--pin HEX] [--pin-seed N] [--spans PATH] [--print-pin]
//
// Prints a provenance line, one human-readable line per metric, and as
// its last line a JSON result document. --pin fails the run when the
// corpus of --pin-seed (default 11) no longer hashes to HEX, so a change
// to the scenario factory cannot silently change the workload.
// Exit status: 0 on a completed run (answer checks are reported in the
// result's "correct" field), 1 on a failure before a result exists,
// 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "util.h"
#include "workloads.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif
#ifndef E2EBENCH_SIMD
#define E2EBENCH_SIMD 0
#endif

namespace {

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--requests N] [--clients N] "
               "[--pin HEX] [--pin-seed N] [--spans PATH] [--print-pin]\n",
               problem.c_str());
  std::exit(2);
}

uint64_t ParseUnsigned(const std::string& flag, const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    Usage(flag + " expects an unsigned integer, got '" + text + "'");
  }
  return std::strtoull(text.c_str(), nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunConfig config;
  std::string workload_name, pin;
  uint64_t pin_seed = 11;
  bool print_pin = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--print-pin") {
      print_pin = true;
      continue;
    }
    if (i + 1 >= argc) Usage(flag + " expects a value");
    std::string value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      config.seed = ParseUnsigned(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = static_cast<double>(ParseUnsigned(flag, value));
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace expects 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--requests") {
      config.fixed_requests = ParseUnsigned(flag, value);
    } else if (flag == "--clients") {
      config.clients = static_cast<int>(ParseUnsigned(flag, value));
    } else if (flag == "--pin") {
      pin = value;
    } else if (flag == "--pin-seed") {
      pin_seed = ParseUnsigned(flag, value);
    } else if (flag == "--spans") {
      config.trace_path = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!e2e::ParseWorkload(workload_name, &config.workload)) {
    Usage("unknown workload '" + workload_name + "'");
  }
  const std::string pinned_hash = e2e::CorpusHash(config.workload, pin_seed);
  if (print_pin) {
    std::printf("%s\n", pinned_hash.c_str());
    return 0;
  }
  if (!have_seed || !have_seconds) Usage("--seed and --seconds are required");
  if (!pin.empty() && pin != pinned_hash) {
    e2e::Fail("corpus drift: " +
              std::string(e2e::WorkloadName(config.workload)) +
              " at seed " + std::to_string(pin_seed) + " hashes to " +
              pinned_hash + ", pinned " + pin +
              " (the generated workload changed; re-pin it in its own change)");
  }

  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"simd_compiled\": %s, "
      "\"cpu_avx2\": %s, \"nproc\": %u, \"corpus_hash\": \"%s\", "
      "\"pin_seed\": %llu, \"pin_hash\": \"%s\"}\n",
      e2e::WorkloadName(config.workload),
      static_cast<unsigned long long>(config.seed), config.trace ? 1 : 0,
      e2e::JsonEscape(__VERSION__).c_str(), E2EBENCH_BUILD_TYPE,
      E2EBENCH_SIMD ? "true" : "false",
      __builtin_cpu_supports("avx2") ? "true" : "false",
      std::thread::hardware_concurrency(),
      e2e::CorpusHash(config.workload, config.seed).c_str(),
      static_cast<unsigned long long>(pin_seed), pinned_hash.c_str());
  std::fflush(stdout);

  e2e::RunOutput out = config.workload == e2e::Workload::kServeBurst
                           ? e2e::RunServeBurst(config)
                           : e2e::RunDecide(config);
  for (const auto& [name, metric] : out.metrics) {
    std::printf("  %-34s %14.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%s\n", e2e::ResultJson(out.correct, out.attempted, out.failed,
                                      out.metrics, out.detail_json)
                          .c_str());
  return 0;
}
