// Small shared helpers of the benchmark harness: clocks, order statistics,
// and the metric list each run prints as its last JSON line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Run `fn` once and return its wall time in seconds.
template <typename Fn>
double time_once(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]); the maximum for q = 1 or for
/// fewer than 1/(1−q) samples.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = std::size_t(std::ceil(q * double(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Peak resident set of this process so far, in MiB: VmHWM, which belongs
/// to this program's address space alone (ru_maxrss also counts the parent
/// image a forked child ran in before exec).
inline double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (!status) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status)) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

/// Named metrics in print order, each a value with its unit.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    rows_.push_back({std::move(name), value, std::move(unit)});
  }

  /// `"name": {"value": v, "unit": "u"}, ...` with every significant digit.
  std::string to_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.9g", rows_[i].value);
      if (i) out += ", ";
      out += "\"" + rows_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    return out + "}";
  }

  /// Human-readable table, one metric per line.
  void print_table(std::FILE* out) const {
    for (const auto& r : rows_) {
      std::fprintf(out, "  %-34s %16.6g %s\n", r.name.c_str(), r.value,
                   r.unit.c_str());
    }
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

}  // namespace perfbench
