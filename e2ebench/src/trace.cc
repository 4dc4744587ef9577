#include "trace.h"

#include <cstdio>

namespace e2e {

int32_t Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  spans_.push_back(span);
  int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::TotalsByName() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Totals& t = totals[span.name];
    double duration_ns = static_cast<double>(span.end_ns - span.start_ns);
    ++t.calls;
    t.total_us += duration_ns / 1e3;
    t.self_us += (duration_ns - static_cast<double>(child_ns[i])) / 1e3;
  }
  return totals;
}

bool Tracer::AppendJsonLines(const std::string& path, int thread) const {
  FILE* out = std::fopen(path.c_str(), "a");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"name\": \"%s\", \"thread\": %d, \"request\": %u, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d}\n",
                 span.name, thread, span.request,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent);
  }
  return std::fclose(out) == 0;
}

}  // namespace e2e
