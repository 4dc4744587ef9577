#include "util.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace e2e {

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

bool PinTo(const std::vector<int>& cpus) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int cpu : cpus) CPU_SET(cpu, &mask);
  return sched_setaffinity(0, sizeof(mask), &mask) == 0;
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) PinTo(cpus_);
}

void CpuRotation::Next() {
  if (cpus_.empty()) return;
  PinTo({cpus_[next_]});
  next_ = (next_ + 1) % cpus_.size();
}

std::vector<double> TimeOnEachCpu(int reps, const std::function<void()>& work,
                                  const std::function<void()>& untimed) {
  std::vector<double> seconds;
  CpuRotation rotation;
  for (size_t c = 0; c < rotation.size(); ++c) {
    rotation.Next();
    for (int i = 0; i < reps; ++i) {
      Clock::time_point t0 = Clock::now();
      work();
      seconds.push_back(SecondsBetween(t0, Clock::now()));
      if (untimed) untimed();
    }
  }
  return seconds;
}

uint64_t Fnv1a(std::string_view data, uint64_t h) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

void Fail(const std::string& message) {
  std::fprintf(stderr, "e2ebench: %s\n", message.c_str());
  std::fflush(stdout);
  std::exit(1);
}

namespace {

/// Nearest-rank percentile of an already sorted sample.
double Percentile(const std::vector<double>& sorted, double percent) {
  if (sorted.empty()) return 0;
  double rank = std::ceil(percent / 100.0 * static_cast<double>(sorted.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

LatencySummary Summarize(std::vector<double> values) {
  LatencySummary out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  out.p50 = Percentile(values, 50);
  // p90 whenever a run has 100 samples. On a shared 4-vCPU VM, host CPU
  // steal moved serve_burst's p99 by up to 3x between runs of the same
  // code, while its p90 held; a tail that noisy cannot see a regression.
  static constexpr double kLadder[] = {90, 75, 50};
  out.tail_percentile = 50;
  out.tail = out.p50;
  for (double p : kLadder) {
    double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    size_t beyond = values.size() - static_cast<size_t>(std::max(rank, 1.0));
    if (beyond >= 10) {
      out.tail_percentile = p;
      out.tail = Percentile(values, p);
      out.beyond_tail = beyond;
      break;
    }
  }
  return out;
}

std::string JoinNumbers(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    if (!out.empty()) out += ", ";
    out += buf;
  }
  return out;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricMap& metrics,
                       const std::string& detail_json) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": {\"value\": " + value +
           ", \"unit\": \"" + JsonEscape(metric.unit) + "\"}";
  }
  out += "}, \"detail\": " + (detail_json.empty() ? "{}" : detail_json) + "}";
  return out;
}

double JsonNumberIn(std::string_view json, std::string_view section,
                    std::string_view key) {
  std::string section_tag = "\"" + std::string(section) + "\"";
  size_t at = json.find(section_tag);
  if (at == std::string_view::npos) return 0;
  size_t end = json.find('}', at);
  std::string key_tag = "\"" + std::string(key) + "\"";
  size_t k = json.find(key_tag, at);
  if (k == std::string_view::npos || k > end) return 0;
  size_t colon = json.find(':', k + key_tag.size());
  if (colon == std::string_view::npos) return 0;
  std::string number(json.substr(colon + 1, 32));
  return std::strtod(number.c_str(), nullptr);
}

}  // namespace e2e
