#include "core/engine_stats.h"

#include <algorithm>

#include "base/string_util.h"

namespace omqc {

void EngineStats::Merge(const EngineStats& other) {
  hom.Merge(other.hom);
  rewrite.Merge(other.rewrite);
  chase_steps += other.chase_steps;
  chase_atoms_derived += other.chase_atoms_derived;
  chase_max_level = std::max(chase_max_level, other.chase_max_level);
  chase_delta_rounds += other.chase_delta_rounds;
  chase_triggers_enumerated += other.chase_triggers_enumerated;
  chase_redundant_triggers_skipped += other.chase_redundant_triggers_skipped;
  disjuncts_checked += other.disjuncts_checked;
  witnesses_rejected += other.witnesses_rejected;
  budget_exhaustions += other.budget_exhaustions;
  cache.Merge(other.cache);
  governor.Merge(other.governor);
}

std::string EngineStats::ToString() const {
  return StrCat(
      "engine stats:\n",
      "  containment: disjuncts_checked=", disjuncts_checked,
      " witnesses_rejected=", witnesses_rejected,
      " budget_exhaustions=", budget_exhaustions, "\n",
      "  rewrite:     queries_generated=", rewrite.queries_generated,
      " rewriting_steps=", rewrite.rewriting_steps,
      " factorization_steps=", rewrite.factorization_steps,
      " dedup_hits=", rewrite.dedup_hits,
      " subsumption_prunes=", rewrite.subsumption_prunes,
      " subsumption_checks=", rewrite.subsumption_checks,
      " minimize_checks=", rewrite.minimize_checks, "\n",
      "  hom search:  searches=", hom.searches, " steps=", hom.steps,
      " candidates_scanned=", hom.candidates_scanned,
      " budget_exhaustions=", hom.budget_exhaustions,
      " postings_intersections=", hom.postings_intersections,
      " candidates_pruned_by_intersection=",
      hom.candidates_pruned_by_intersection, "\n",
      "  chase:       steps=", chase_steps,
      " atoms_derived=", chase_atoms_derived,
      " max_level=", chase_max_level,
      " delta_rounds=", chase_delta_rounds,
      " triggers_enumerated=", chase_triggers_enumerated,
      " redundant_triggers_skipped=", chase_redundant_triggers_skipped, "\n",
      "  governor:    checks=", governor.checks,
      " deadline_trips=", governor.deadline_trips,
      " cancel_trips=", governor.cancel_trips,
      " memory_trips=", governor.memory_trips, "\n",
      "  cache:       ", cache.ToString());
}

}  // namespace omqc
