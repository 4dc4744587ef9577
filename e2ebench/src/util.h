// Small helpers shared by the e2ebench workloads: clocks, process
// resource usage, hashing, latency summaries and metric output.

#ifndef E2EBENCH_UTIL_H_
#define E2EBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process user+system CPU time, in seconds (all threads).
double CpuSeconds();

/// Peak resident set size of the process, in MiB.
double PeakRssMb();

/// 64-bit FNV-1a, chainable through `h`.
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
uint64_t Fnv1a(std::string_view data, uint64_t h = kFnvOffset);
std::string Hex64(uint64_t value);

/// Moves the calling thread over the CPUs the process may use, one at a
/// time, and restores the original affinity when destroyed (threads
/// started meanwhile inherit the pin). On a shared VM one vCPU can run the
/// same work ~1.2-1.6x slower than the others for a whole run; visiting
/// every CPU keeps that placement out of a run's figures.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Number of CPUs visited (1 when the affinity cannot be changed).
  size_t size() const { return cpus_.empty() ? 1 : cpus_.size(); }
  /// Pins the calling thread to the next CPU, cyclically.
  void Next();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Times `work` `reps` times on each CPU (CpuRotation) and returns every
/// duration in seconds; `untimed`, when set, runs after each repetition.
std::vector<double> TimeOnEachCpu(int reps, const std::function<void()>& work,
                                  const std::function<void()>& untimed = {});

/// Prints `message` to stderr and exits with status 1 without printing a
/// result line.
[[noreturn]] void Fail(const std::string& message);

/// Median and tail of a latency sample. The tail is the highest percentile
/// of the ladder {90, 75, 50} that still has at least 10 samples beyond it.
struct LatencySummary {
  size_t samples = 0;
  double p50 = 0;
  double tail = 0;
  double tail_percentile = 0;
  size_t beyond_tail = 0;
};
LatencySummary Summarize(std::vector<double> values);

/// Metric name -> (value, unit), printed as the result document.
struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// The machine-readable result: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}, "detail":{...}}. `detail_json`
/// is a pre-serialized JSON object with workload-specific extras.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricMap& metrics,
                       const std::string& detail_json);

/// "a, b, c" with full precision (for JSON arrays in result details).
std::string JoinNumbers(const std::vector<double>& values);

/// Minimal JSON string escaping.
std::string JsonEscape(std::string_view text);

/// Reads the number that follows `"key":` in the first `"section":` object
/// of a flat JSON document produced by core/stats_json (0 when absent).
double JsonNumberIn(std::string_view json, std::string_view section,
                    std::string_view key);

}  // namespace e2e

#endif  // E2EBENCH_UTIL_H_
