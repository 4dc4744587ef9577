// Shared front-end plumbing for the omqc binaries (omqc_cli, omqc_server,
// omqc_load): engine flag parsing, program loading, and verdict
// formatting.
//
// omqc_cli and omqc_server accept the same --cache-dir=/--deadline-ms=/...
// engine flags; parsing lives here once so they cannot drift (omqc_load
// has flags of its own). Numeric flag values
// are parsed *strictly* — "--deadline-ms=12x" or "--deadline-ms=" is a
// usage error, not a silent 12 or 0 (omqc_cli historically accepted both
// via strtoul).
//
// The Format* functions produce the exact text omqc_cli prints for a
// verdict; the server returns the same strings as response bodies, which
// is what makes "server output is byte-identical to the CLI" a structural
// property rather than a test aspiration (asserted anyway by
// tests/server_test.cc and scripts/server_smoke.sh).

#ifndef OMQC_CORE_FRONTEND_H_
#define OMQC_CORE_FRONTEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/governor.h"
#include "cache/omq_cache.h"
#include "core/containment.h"
#include "core/omq.h"
#include "tgd/parser.h"

namespace omqc {

/// The engine flags shared by every omqc binary.
struct EngineFlags {
  bool stats = false;      ///< --stats (human-readable EngineStats)
  bool stats_json = false; ///< --stats-json (machine-readable EngineStats)
  std::string cache_dir;     ///< --cache-dir=PATH ("" = none)
  uint64_t deadline_ms = 0;  ///< --deadline-ms=N (0 = none)
  size_t max_memory_mb = 0;  ///< --max-memory-mb=N (0 = none)
};

/// One-line usage text for the shared engine flags (appended to each
/// binary's own usage message).
const char* EngineFlagsUsage();

/// Strict unsigned decimal parse of a flag value: the whole of `text` must
/// be digits and fit in a uint64_t. `flag` names the flag for the error
/// message ("--deadline-ms").
Result<uint64_t> ParseUnsignedFlagValue(const std::string& flag,
                                        const std::string& text);

/// Tries to consume `arg` as a shared engine flag into `flags`. Returns
/// true when consumed, false when `arg` is not an engine flag (positional
/// argument or a binary-specific flag), and an error Status for an engine
/// flag with a malformed value.
Result<bool> ParseEngineFlag(const std::string& arg, EngineFlags* flags);

/// The compilation cache of a one-shot process: one warm-started from
/// --cache-dir (created if absent), or null without it. A memory-only
/// cache would die with the process, and inside one request the LHS
/// enumeration and the RHS rewriting carry different option digests, so
/// it could not hit. Fails only when the cache directory cannot be
/// created — bad segment contents degrade to a cold cache, never to an
/// error.
Result<std::unique_ptr<OmqCache>> MakeCacheFromFlags(
    const EngineFlags& flags);

/// Applies the deadline/memory flags to `governor`.
void ApplyGovernorFlags(const EngineFlags& flags, ResourceGovernor* governor);

/// Reads and parses a DLGP program file.
Result<Program> LoadProgramFile(const std::string& path);

/// Data schema heuristic shared by all front ends: fact predicates plus
/// query/tgd body predicates no tgd derives.
Schema InferProgramDataSchema(const Program& program);

/// The single-CQ query named `name` as an OMQ over `schema`; NotFound /
/// Unsupported mirror omqc_cli's historical messages.
Result<Omq> SingleQueryNamed(const Program& program, const Schema& schema,
                             const std::string& name);

/// "N answer(s):" plus one indented tuple per line — exactly what
/// omqc_cli eval prints.
std::string FormatAnswers(const std::vector<std::vector<Term>>& answers);

/// The containment verdict block omqc_cli contain prints: verdict line,
/// optional detail, optional counterexample database, candidates line.
std::string FormatContainmentReport(const std::string& lhs,
                                    const std::string& rhs,
                                    const ContainmentResult& result);

/// The classification block omqc_cli classify prints.
std::string FormatClassificationReport(const TgdSet& tgds);

}  // namespace omqc

#endif  // OMQC_CORE_FRONTEND_H_
