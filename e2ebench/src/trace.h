// In-memory span recorder for the traced run.
//
// A span is one call into a layer's public function, timed from the
// benchmark's side of the call: name, start, end, parent span and request
// id. Spans nest on one thread (a stack of open spans gives the parent);
// each thread that records spans owns its own Tracer, so recording takes
// no lock. Spans stay in memory and are written out when the run ends.
// A span's self time is its duration minus the time its direct children
// cover (children of one parent never overlap on a single thread).

#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util.h"

namespace e2e {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint32_t request = 0;
  };

  /// Per-name totals over every recorded span.
  struct Totals {
    uint64_t calls = 0;
    double total_us = 0;
    double self_us = 0;
  };

  Tracer() : origin_(Clock::now()) {}

  void set_request(uint32_t request) { request_ = request; }

  /// Opens a span as a child of the innermost open span.
  int32_t Begin(const char* name);
  /// Closes span `id`, which must be the innermost open span.
  void End(int32_t id);

  std::map<std::string, Totals> TotalsByName() const;

  /// Appends `{"name":..,"request":..,"start_ns":..,"end_ns":..,
  /// "parent":..}` records (one per line) to `path`; `thread` tags them.
  bool AppendJsonLines(const std::string& path, int thread) const;

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  uint32_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
