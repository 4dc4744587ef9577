#include "core/frontend.h"

#include <fstream>
#include <sstream>

#include "base/string_util.h"
#include "tgd/classify.h"

namespace omqc {

const char* EngineFlagsUsage() {
  return "[--stats] [--stats-json] [--cache-dir=PATH] [--deadline-ms=N] "
         "[--max-memory-mb=N]";
}

Result<uint64_t> ParseUnsignedFlagValue(const std::string& flag,
                                        const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument(
        StrCat(flag, " expects an unsigned integer, got an empty value"));
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(
          StrCat(flag, " expects an unsigned integer, got '", text, "'"));
    }
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return Status::InvalidArgument(
          StrCat(flag, " value '", text, "' overflows"));
    }
    value = value * 10 + digit;
  }
  return value;
}

namespace {

/// Shared pattern: "--name=<uint>" with strict value parsing.
Result<bool> ConsumeUnsigned(const std::string& arg, const char* name,
                             uint64_t* out) {
  std::string prefix = StrCat(name, "=");
  if (arg.rfind(prefix, 0) != 0) return false;
  OMQC_ASSIGN_OR_RETURN(*out,
                        ParseUnsignedFlagValue(name, arg.substr(prefix.size())));
  return true;
}

}  // namespace

Result<bool> ParseEngineFlag(const std::string& arg, EngineFlags* flags) {
  uint64_t value = 0;
  if (arg == "--stats") {
    flags->stats = true;
    return true;
  }
  if (arg == "--stats-json") {
    flags->stats_json = true;
    return true;
  }
  if (arg.rfind("--cache-dir=", 0) == 0) {
    std::string dir = arg.substr(12);
    if (dir.empty()) {
      return Status::InvalidArgument("--cache-dir expects a directory path");
    }
    flags->cache_dir = dir;
    return true;
  }
  {
    auto r = ConsumeUnsigned(arg, "--deadline-ms", &value);
    if (!r.ok()) return r.status();
    if (*r) {
      flags->deadline_ms = value;
      return true;
    }
  }
  {
    auto r = ConsumeUnsigned(arg, "--max-memory-mb", &value);
    if (!r.ok()) return r.status();
    if (*r) {
      flags->max_memory_mb = static_cast<size_t>(value);
      return true;
    }
  }
  return false;
}

Result<std::unique_ptr<OmqCache>> MakeCacheFromFlags(
    const EngineFlags& flags) {
  if (flags.cache_dir.empty()) return std::unique_ptr<OmqCache>();
  return OmqCache::Open(OmqCacheConfig(), flags.cache_dir);
}

void ApplyGovernorFlags(const EngineFlags& flags,
                        ResourceGovernor* governor) {
  if (flags.deadline_ms > 0) {
    governor->set_deadline_after(std::chrono::milliseconds(flags.deadline_ms));
  }
  if (flags.max_memory_mb > 0) {
    governor->set_memory_budget(flags.max_memory_mb * size_t{1024} * 1024);
  }
}

Result<Program> LoadProgramFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound(StrCat("cannot open ", path));
  std::ostringstream text;
  text << in.rdbuf();
  return ParseProgram(text.str());
}

Schema InferProgramDataSchema(const Program& program) {
  Schema schema = program.facts.InducedSchema();
  Schema derived = program.tgds.HeadPredicates();
  for (const NamedQuery& nq : program.queries) {
    for (const Atom& a : nq.query.body) {
      if (!derived.Contains(a.predicate)) schema.Add(a.predicate);
    }
  }
  for (const Tgd& tgd : program.tgds.tgds) {
    for (const Atom& a : tgd.body) {
      if (!derived.Contains(a.predicate)) schema.Add(a.predicate);
    }
  }
  return schema;
}

Result<Omq> SingleQueryNamed(const Program& program, const Schema& schema,
                             const std::string& name) {
  UnionOfCQs ucq = program.QueriesNamed(name);
  if (ucq.empty()) {
    return Status::NotFound("no query named " + name);
  }
  if (ucq.size() > 1) {
    return Status::Unsupported(
        "query " + name + " is a UCQ; this command expects a single CQ");
  }
  return Omq{schema, program.tgds, ucq.disjuncts.front()};
}

std::string FormatAnswers(const std::vector<std::vector<Term>>& answers) {
  std::string out = StrCat(answers.size(), " answer(s):\n");
  for (const auto& tuple : answers) {
    out += StrCat("  (",
                  JoinMapped(tuple, ", ",
                             [](const Term& t) { return t.ToString(); }),
                  ")\n");
  }
  return out;
}

std::string FormatContainmentReport(const std::string& lhs,
                                    const std::string& rhs,
                                    const ContainmentResult& result) {
  std::string out = StrCat(lhs, " ⊆ ", rhs, ": ",
                           ContainmentOutcomeToString(result.outcome), "\n");
  if (!result.detail.empty()) {
    out += StrCat("  ", result.detail, "\n");
  }
  if (result.witness.has_value()) {
    out += StrCat("counterexample database:\n",
                  PrettifiedCopy(result.witness->database).ToString(), "\n");
  }
  out += StrCat("candidates checked: ", result.candidates_checked,
                " (largest: ", result.max_witness_size, " atoms)\n");
  return out;
}

std::string FormatClassificationReport(const TgdSet& tgds) {
  ClassificationReport report = Classify(tgds);
  return StrCat("tgds: ", tgds.size(), "\nclasses: ", report.ToString(),
                "\nprimary class: ", TgdClassToString(PrimaryClass(tgds)),
                "\n");
}

}  // namespace omqc
