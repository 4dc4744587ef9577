#include <algorithm>

#include "workloads.h"

namespace e2e {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

void AddEndToEnd(MetricMap& metrics, double requests_per_s,
                 const LatencySummary& latency, double unknown_rate,
                 double error_rate, double cpu_ms_per_request,
                 double peak_rss_mb, double setup_s) {
  metrics["requests_per_s"] = {requests_per_s, "1/s"};
  metrics["latency_p50_ms"] = {latency.p50, "ms"};
  metrics["latency_tail_ms"] = {latency.tail, "ms"};
  // UNKNOWN and error rates are reported as their complements so that no
  // metric reads 0 (a ratio to a zero median is undefined).
  metrics["definite_rate"] = {1.0 - unknown_rate, "ratio"};
  metrics["ok_rate"] = {1.0 - error_rate, "ratio"};
  metrics["cpu_ms_per_request"] = {cpu_ms_per_request, "ms"};
  metrics["peak_rss_mb"] = {peak_rss_mb, "MB"};
  metrics["setup_s"] = {setup_s, "s"};
}

uint64_t MemoryProbeAt(Workload workload) {
  switch (workload) {
    case Workload::kDecideUcq:
      return 960;  // 40 blocks
    case Workload::kDecideGuarded:
      return 96;  // 8 blocks
    case Workload::kServeBurst:
      return 4000;  // 500 bursts
  }
  return 0;
}

void AddPerLayerDefaults(MetricMap& metrics) {
  static const struct {
    const char* name;
    const char* unit;
  } kPerLayer[] = {
      {"tgd.parse_us", "us"},
      {"tgd.classify_us", "us"},
      {"cache.fingerprint_us", "us"},
      {"cache.inserts_per_request", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.misses_per_program", "count"},
      {"rewrite.enumerate_ms", "ms"},
      {"rewrite.queries_generated", "count"},
      {"rewrite.steps", "count"},
      {"rewrite.dedup_hits", "count"},
      {"rewrite.subsumption_prunes", "count"},
      {"rewrite.prunes_per_query", "ratio"},
      {"rewrite.saturated_ratio", "ratio"},
      {"logic.freeze_us", "us"},
      {"logic.hom_searches", "count"},
      {"logic.hom_steps", "count"},
      {"logic.hom_candidates_scanned", "count"},
      {"chase.steps", "count"},
      {"chase.atoms_derived", "count"},
      {"chase.redundant_trigger_ratio", "ratio"},
      {"core.rhs_check_ms", "ms"},
      {"core.candidates_per_request", "count"},
      {"core.budget_exhaustions", "count"},
      {"core.unknown.contained", "ratio"},
      {"core.unknown.not_contained", "ratio"},
      {"core.format_us", "us"},
      {"server.admission_wait_us", "us"},
      {"server.exec_us", "us"},
      {"server.batch_size_mean", "count"},
      {"base.governor_checks_per_request", "count"},
      {"trace.request_ms", "ms"},
      {"trace.check_containment_ms", "ms"},
  };
  for (const auto& m : kPerLayer) metrics[m.name] = {0, m.unit};
}

}  // namespace e2e
