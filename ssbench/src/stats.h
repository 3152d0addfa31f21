// Small helpers shared by the daemon phases and the ladder: latency samples
// with exact percentiles, and an ordered name -> value metric list.
#ifndef SSBENCH_SRC_STATS_H_
#define SSBENCH_SRC_STATS_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ssbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Latency samples in nanoseconds.
struct Samples {
  std::vector<uint64_t> ns;

  void Add(uint64_t v) { ns.push_back(v); }
  void Merge(const Samples& other) { ns.insert(ns.end(), other.ns.begin(), other.ns.end()); }
  size_t count() const { return ns.size(); }

  // Nearest-rank percentile in microseconds; 0 when empty.
  double PercentileUs(double q) const {
    if (ns.empty()) {
      return 0.0;
    }
    std::vector<uint64_t> v = ns;
    const size_t rank =
        std::min(static_cast<size_t>(q * static_cast<double>(v.size())), v.size() - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
    return static_cast<double>(v[rank]) / 1e3;
  }
};

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct MetricValue {
  std::string name;
  double value;
  std::string unit;
};

using MetricList = std::vector<MetricValue>;

}  // namespace ssbench

#endif  // SSBENCH_SRC_STATS_H_
