// Workload inputs: every request is generated DLGP text, a pure function
// of (workload, seed, index).
//
// The decide_* streams are cut into blocks of fixed composition (strata
// of class, polarity and tile shape, drawn from the scenario factory by
// rejection), so two seeds differ in the programs they send but not in
// the mix of work. A block's requests are shuffled so that a run that
// stops mid-block still sends a random part of the mix.

#ifndef E2EBENCH_CORPUS_H_
#define E2EBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/containment.h"
#include "soak/scenario.h"

namespace e2e {

enum class Workload { kDecideUcq, kDecideGuarded, kServeBurst };

const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* out);

/// How a decide request was built.
enum class RequestKind {
  kFactory,       ///< a scenario-factory program as is
  kRhsExtension,  ///< contained variant (i): RHS ontology = Σ1 + extra tgds
  kLhsCut,        ///< contained variant (ii): Q1 cut back to level Tk
};
const char* RequestKindName(RequestKind kind);

/// One containment request "Q1 ⊆ Q2?". Q1 is read from `lhs_text`; Q2 from
/// `rhs_text` when set (variant (i) carries a second program with the
/// extended ontology), else from `lhs_text`.
struct DecideRequest {
  std::string lhs_text;
  std::string rhs_text;
  omqc::ContainmentOutcome expected = omqc::ContainmentOutcome::kUnknown;
  RequestKind kind = RequestKind::kFactory;
};

/// The `block`-th block of a decide_* stream.
std::vector<DecideRequest> DecideBlock(Workload workload, uint64_t seed,
                                       uint64_t block);

/// Containment options of a decide_* workload: defaults for decide_ucq,
/// the soak budget (max_queries=120, max_steps=20000, prune_subsumed)
/// for decide_guarded.
omqc::ContainmentOptions DecideOptions(Workload workload);

/// One serve_burst program: a cheap linear-class factory scenario.
struct BurstProgram {
  std::string text;
  omqc::ContainmentOutcome expected = omqc::ContainmentOutcome::kUnknown;
  std::string witness;  ///< the certified answer constant of Q1
};

/// The `index`-th program of the serve_burst stream.
BurstProgram BurstProgramAt(uint64_t seed, uint64_t index);

/// Variant constructors (exposed for validation on linear scenarios).
DecideRequest MakeRhsExtension(const omqc::Scenario& base,
                               omqc::SplitMix64& rng);
/// Fails (returns false) when no level k >= 1 has a side-condition-free
/// suffix of tiles.
bool MakeLhsCut(const omqc::Scenario& base, DecideRequest* out);

/// Fingerprint of the first blocks/programs of a workload's stream.
std::string CorpusHash(Workload workload, uint64_t seed);

/// The fixed warm-up request used to time set-up of decide_* runs.
DecideRequest WarmupRequest();

}  // namespace e2e

#endif  // E2EBENCH_CORPUS_H_
