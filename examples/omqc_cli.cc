// omqc_cli — a command-line front end for the library.
//
// Usage:
//   omqc_cli classify <program-file>
//   omqc_cli eval <program-file> <query-name>
//   omqc_cli rewrite <program-file> <query-name>
//   omqc_cli contain <program-file> <query-name-1> <query-name-2>
//   omqc_cli distribute <program-file> <query-name>
//   omqc_cli explain <program-file> <query-name> [answer constants...]
//
// Flags (anywhere on the command line; shared with omqc_server/omqc_load,
// parsed by src/core/frontend.h — malformed numeric values are a usage
// error):
//   --stats                  print per-layer EngineStats after `eval` /
//                            `contain`
//   --stats-json             print EngineStats as one JSON document (same
//                            serializer as the server STATS endpoint)
//   --cache-dir=PATH         compilation cache (UCQ rewritings, complete
//                            chases) for `eval` and `contain`, backed by
//                            the persistent artifact store at PATH
//                            (created if absent): the cache warm-starts
//                            from PATH and flushes new artifacts back on
//                            exit, so a second process re-running a
//                            command serves compilations from disk
//                            instead of redoing them. Without it no cache
//                            is built. Verdicts are byte-identical either
//                            way.
//   --deadline-ms=N          wall-clock deadline for `eval` / `contain`
//                            (0 = none, default). A tripped deadline
//                            reports the partial result and exits 3.
//   --max-memory-mb=N        memory budget for governed intermediate
//                            results (chase atoms, rewriting disjuncts) in
//                            `eval` / `contain` (0 = none, default);
//                            tripping it also exits 3.
//
// Exit codes: 0 success, 1 error, 2 usage, 3 resource governor tripped
// (deadline or memory budget) before a definite answer.
//
// The program file holds tgds, named queries and facts in the DLGP-style
// format (see README). The data schema is taken to be the set of
// predicates occurring in the facts plus any query-body predicates that
// no tgd derives.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "base/governor.h"
#include "core/applications.h"
#include "core/containment.h"
#include "core/eval.h"
#include "core/explain.h"
#include "core/frontend.h"
#include "core/stats_json.h"
#include "rewrite/xrewrite.h"
#include "tgd/parser.h"

using namespace omqc;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// Exit code for a tripped resource governor — distinct from 1 (error) and
/// 2 (usage) so scripts can tell "ran out of budget" from "went wrong".
constexpr int kGovernorTripExit = 3;

/// Shared tail for governed commands: a trip overrides the command's own
/// exit code (the partial output has already been printed).
int GovernedExit(const ResourceGovernor& governor, int code) {
  if (governor.tripped()) {
    std::fprintf(stderr, "governor: %s\n",
                 governor.TripStatus().ToString().c_str());
    return kGovernorTripExit;
  }
  return code;
}

/// --stats / --stats-json tail for `eval` and `contain`.
void PrintStats(const EngineFlags& flags, const EngineStats& stats) {
  if (flags.stats) std::printf("%s\n", stats.ToString().c_str());
  if (flags.stats_json) {
    std::printf("%s\n", EngineStatsToJson(stats).c_str());
  }
}

int Classify(const Program& program) {
  std::fputs(FormatClassificationReport(program.tgds).c_str(), stdout);
  return 0;
}

int Eval(const Program& program, const Schema& schema,
         const std::string& name, const EngineFlags& flags,
         OmqCache* cache) {
  auto omq = SingleQueryNamed(program, schema, name);
  if (!omq.ok()) return Fail(omq.status().ToString());
  EngineStats stats;
  EvalOptions eval_options;
  eval_options.cache = cache;
  ResourceGovernor governor;
  ApplyGovernorFlags(flags, &governor);
  eval_options.governor = &governor;
  auto answers = EvalAll(*omq, program.facts, eval_options, &stats);
  if (!answers.ok()) {
    return GovernedExit(governor, Fail(answers.status().ToString()));
  }
  std::fputs(FormatAnswers(*answers).c_str(), stdout);
  PrintStats(flags, stats);
  return GovernedExit(governor, 0);
}

int Rewrite(const Program& program, const Schema& schema,
            const std::string& name) {
  auto omq = SingleQueryNamed(program, schema, name);
  if (!omq.ok()) return Fail(omq.status().ToString());
  XRewriteStats stats;
  auto rewriting = XRewrite(schema, omq->tgds, omq->query,
                            XRewriteOptions(), &stats);
  if (!rewriting.ok()) return Fail(rewriting.status().ToString());
  UnionOfCQs minimized = MinimizeUCQ(*rewriting);
  std::printf("UCQ rewriting over %s (%zu disjuncts, %zu minimized):\n%s\n",
              schema.ToString().c_str(), rewriting->size(),
              minimized.size(), minimized.ToString().c_str());
  return 0;
}

int Contain(const Program& program, const Schema& schema,
            const std::string& lhs, const std::string& rhs,
            const EngineFlags& flags, OmqCache* cache) {
  auto q1 = SingleQueryNamed(program, schema, lhs);
  auto q2 = SingleQueryNamed(program, schema, rhs);
  if (!q1.ok()) return Fail(q1.status().ToString());
  if (!q2.ok()) return Fail(q2.status().ToString());
  ContainmentOptions options;
  options.cache = cache;
  ResourceGovernor governor;
  ApplyGovernorFlags(flags, &governor);
  options.governor = &governor;
  auto result = CheckContainment(*q1, *q2, options);
  if (!result.ok()) {
    return GovernedExit(governor, Fail(result.status().ToString()));
  }
  std::fputs(FormatContainmentReport(lhs, rhs, *result).c_str(), stdout);
  PrintStats(flags, result->stats);
  return GovernedExit(governor, 0);
}

int Explain(const Program& program, const Schema& schema,
            const std::string& name,
            const std::vector<std::string>& constants) {
  auto omq = SingleQueryNamed(program, schema, name);
  if (!omq.ok()) return Fail(omq.status().ToString());
  std::vector<Term> tuple;
  for (const std::string& c : constants) tuple.push_back(Term::Constant(c));
  auto why = ExplainTuple(*omq, program.facts, tuple);
  if (!why.ok()) return Fail(why.status().ToString());
  std::printf("%s", why->ToString(program.tgds).c_str());
  return 0;
}

int Distribute(const Program& program, const Schema& schema,
               const std::string& name) {
  auto omq = SingleQueryNamed(program, schema, name);
  if (!omq.ok()) return Fail(omq.status().ToString());
  auto result = DistributesOverComponents(*omq);
  if (!result.ok()) return Fail(result.status().ToString());
  std::printf("%s distributes over components: %s\n", name.c_str(),
              ContainmentOutcomeToString(result->outcome));
  if (!result->detail.empty()) std::printf("  %s\n", result->detail.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  EngineFlags flags;
  std::vector<std::string> args;  // positional: command, file, names...
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto consumed = ParseEngineFlag(arg, &flags);
    if (!consumed.ok()) {
      std::fprintf(stderr, "%s\n", consumed.status().message().c_str());
      return 2;
    }
    if (*consumed) continue;
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    }
    args.push_back(std::move(arg));
  }
  if (args.size() < 2) {
    std::fprintf(stderr,
                 "usage: %s classify|eval|rewrite|contain|distribute|"
                 "explain <program-file> [query names / constants...] %s\n"
                 "exit codes: 0 ok, 1 error, 2 usage, 3 governor tripped "
                 "(deadline/memory)\n",
                 argv[0], EngineFlagsUsage());
    return 2;
  }
  auto program = LoadProgramFile(args[1]);
  if (!program.ok()) return Fail(program.status().ToString());
  Schema schema = InferProgramDataSchema(*program);
  auto cache_or = MakeCacheFromFlags(flags);
  if (!cache_or.ok()) return Fail(cache_or.status().ToString());
  // Destroying the cache on return seals everything this run compiled
  // into --cache-dir so the next process warm-starts.
  std::unique_ptr<OmqCache> cache = std::move(cache_or).value();

  const std::string& command = args[0];
  if (command == "classify") return Classify(*program);
  if (command == "eval" && args.size() >= 3) {
    return Eval(*program, schema, args[2], flags, cache.get());
  }
  if (command == "rewrite" && args.size() >= 3) {
    return Rewrite(*program, schema, args[2]);
  }
  if (command == "contain" && args.size() >= 4) {
    return Contain(*program, schema, args[2], args[3], flags, cache.get());
  }
  if (command == "distribute" && args.size() >= 3) {
    return Distribute(*program, schema, args[2]);
  }
  if (command == "explain" && args.size() >= 3) {
    return Explain(*program, schema, args[2],
                   std::vector<std::string>(args.begin() + 3, args.end()));
  }
  std::fprintf(stderr, "unknown or incomplete command '%s'\n",
               command.c_str());
  return 2;
}
