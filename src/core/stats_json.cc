#include "core/stats_json.h"

namespace omqc {

void AppendGovernorCountersJson(JsonWriter& w, std::string_view key,
                                const GovernorCounters& governor) {
  w.BeginObject(key);
  w.Field("checks", governor.checks);
  w.Field("deadline_trips", governor.deadline_trips);
  w.Field("cancel_trips", governor.cancel_trips);
  w.Field("memory_trips", governor.memory_trips);
  w.EndObject();
}

void AppendCacheCountersJson(JsonWriter& w, std::string_view key,
                             const CacheCounters& cache) {
  w.BeginObject(key);
  w.Field("lookups", cache.lookups);
  w.Field("hits", cache.hits);
  w.Field("misses", cache.misses);
  w.Field("insertions", cache.insertions);
  w.Field("evictions", cache.evictions);
  w.Field("bytes_inserted", cache.bytes_inserted);
  w.Field("persist_hits", cache.persist_hits);
  w.Field("persist_writes", cache.persist_writes);
  w.EndObject();
}

void AppendOmqCacheStatsJson(JsonWriter& w, std::string_view key,
                             const OmqCacheStats& stats) {
  w.BeginObject(key);
  AppendCacheCountersJson(w, "counters", stats.counters);
  w.Field("entries", stats.entries);
  w.Field("bytes", stats.bytes);
  w.Field("persist_entries", stats.persist_entries);
  w.Field("persist_segments", stats.persist_segments);
  w.Field("persist_corrupt_records", stats.persist_corrupt_records);
  w.Field("persist_version_rejects", stats.persist_version_rejects);
  w.EndObject();
}

void AppendEngineStatsJson(JsonWriter& w, std::string_view key,
                           const EngineStats& stats) {
  w.BeginObject(key);

  w.BeginObject("containment");
  w.Field("disjuncts_checked", stats.disjuncts_checked);
  w.Field("witnesses_rejected", stats.witnesses_rejected);
  w.Field("budget_exhaustions", stats.budget_exhaustions);
  w.EndObject();

  w.BeginObject("rewrite");
  w.Field("queries_generated", stats.rewrite.queries_generated);
  w.Field("rewriting_steps", stats.rewrite.rewriting_steps);
  w.Field("factorization_steps", stats.rewrite.factorization_steps);
  w.Field("max_disjunct_atoms", stats.rewrite.max_disjunct_atoms);
  w.Field("dedup_hits", stats.rewrite.dedup_hits);
  w.Field("subsumption_prunes", stats.rewrite.subsumption_prunes);
  w.Field("subsumption_checks", stats.rewrite.subsumption_checks);
  w.Field("minimize_checks", stats.rewrite.minimize_checks);
  w.EndObject();

  w.BeginObject("hom");
  w.Field("searches", stats.hom.searches);
  w.Field("steps", stats.hom.steps);
  w.Field("candidates_scanned", stats.hom.candidates_scanned);
  w.Field("budget_exhaustions", stats.hom.budget_exhaustions);
  w.Field("postings_intersections", stats.hom.postings_intersections);
  w.Field("candidates_pruned_by_intersection",
          stats.hom.candidates_pruned_by_intersection);
  w.EndObject();

  w.BeginObject("chase");
  w.Field("steps", stats.chase_steps);
  w.Field("atoms_derived", stats.chase_atoms_derived);
  w.Field("max_level", stats.chase_max_level);
  w.Field("delta_rounds", stats.chase_delta_rounds);
  w.Field("triggers_enumerated", stats.chase_triggers_enumerated);
  w.Field("redundant_triggers_skipped",
          stats.chase_redundant_triggers_skipped);
  w.EndObject();

  AppendGovernorCountersJson(w, "governor", stats.governor);
  AppendCacheCountersJson(w, "cache", stats.cache);

  w.EndObject();
}

std::string EngineStatsToJson(const EngineStats& stats) {
  JsonWriter w;
  w.BeginObject();
  AppendEngineStatsJson(w, "engine", stats);
  w.EndObject();
  return w.TakeString();
}

}  // namespace omqc
