// The three workloads. Each drives the system only through its public
// functions (ParseProgram, the core/frontend helpers, CheckContainment,
// OmqServer/OmqClient), checks every answer, and reports its end-to-end
// metrics (untraced run) or its per-layer metrics (traced run).

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "corpus.h"
#include "util.h"

namespace e2e {

struct RunConfig {
  Workload workload = Workload::kDecideUcq;
  uint64_t seed = 11;
  double seconds = 10;
  bool trace = false;
  /// When > 0, send exactly this many requests instead of running for
  /// `seconds` (the determinism self-test uses this).
  uint64_t fixed_requests = 0;
  /// serve_burst client connections.
  int clients = 4;
  /// Where the traced run appends its spans ("" = keep them in memory).
  std::string trace_path;
};

struct RunOutput {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricMap metrics;
  /// JSON object with workload-specific extras (counts, tail percentile).
  std::string detail_json;
};

RunOutput RunDecide(const RunConfig& config);
RunOutput RunServeBurst(const RunConfig& config);

/// Adds the end-to-end metrics shared by every workload. `peak_rss_mb` is
/// read after a fixed number of requests (MemoryProbeAt), so a faster
/// system is not charged for the extra requests it completes.
void AddEndToEnd(MetricMap& metrics, double requests_per_s,
                 const LatencySummary& latency, double unknown_rate,
                 double error_rate, double cpu_ms_per_request,
                 double peak_rss_mb, double setup_s);

/// How many requests a workload completes before peak_rss_mb is read.
uint64_t MemoryProbeAt(Workload workload);

/// Every per-layer metric name with its unit, so each traced run reports
/// the full set (0 where the workload does not reach the layer).
void AddPerLayerDefaults(MetricMap& metrics);

/// Median of a sample (0 when empty).
double Median(std::vector<double> values);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
