#include "src/obs/metrics.h"

#include <algorithm>

namespace shield::obs {

double HistogramData::Quantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample, 1-based: the ceil(q * count)-th smallest.
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count));
  if (static_cast<double>(target) < q * static_cast<double>(count)) {
    ++target;
  }
  if (target == 0) {
    target = 1;
  }
  uint64_t cumulative = 0;
  for (const auto& [index, n] : buckets) {
    if (cumulative + n >= target) {
      const double lower = static_cast<double>(Histogram::BucketLowerBound(index));
      const double upper = static_cast<double>(Histogram::BucketUpperBound(index));
      const double within = static_cast<double>(target - cumulative);
      double est = lower + (upper - lower) * (within / static_cast<double>(n));
      // Never report beyond the observed maximum (the top bucket is wide).
      return std::min(est, static_cast<double>(max));
    }
    cumulative += n;
  }
  return static_cast<double>(max);
}

void HistogramData::Merge(const HistogramData& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  std::vector<std::pair<uint16_t, uint64_t>> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  size_t i = 0;
  size_t j = 0;
  while (i < buckets.size() || j < other.buckets.size()) {
    if (j >= other.buckets.size() || (i < buckets.size() && buckets[i].first < other.buckets[j].first)) {
      merged.push_back(buckets[i++]);
    } else if (i >= buckets.size() || other.buckets[j].first < buckets[i].first) {
      merged.push_back(other.buckets[j++]);
    } else {
      merged.emplace_back(buckets[i].first, buckets[i].second + other.buckets[j].second);
      ++i;
      ++j;
    }
  }
  buckets = std::move(merged);
}

void HistogramData::Subtract(const HistogramData& earlier) {
  count = count >= earlier.count ? count - earlier.count : 0;
  sum = sum >= earlier.sum ? sum - earlier.sum : 0;
  std::vector<std::pair<uint16_t, uint64_t>> out;
  out.reserve(buckets.size());
  size_t j = 0;
  for (const auto& [index, n] : buckets) {
    while (j < earlier.buckets.size() && earlier.buckets[j].first < index) {
      ++j;
    }
    uint64_t base = 0;
    if (j < earlier.buckets.size() && earlier.buckets[j].first == index) {
      base = earlier.buckets[j].second;
    }
    if (n > base) {
      out.emplace_back(index, n - base);
    }
  }
  buckets = std::move(out);
}

Histogram::Histogram() : shards_(new Shard[kHistogramShards]) {
  for (size_t s = 0; s < kHistogramShards; ++s) {
    for (size_t b = 0; b < kNumBuckets; ++b) {
      shards_[s].counts[b].store(0, std::memory_order_relaxed);
    }
  }
}

HistogramData Histogram::Data() const {
  HistogramData data;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    uint64_t n = 0;
    for (size_t s = 0; s < kHistogramShards; ++s) {
      n += shards_[s].counts[b].load(std::memory_order_relaxed);
    }
    if (n > 0) {
      data.buckets.emplace_back(static_cast<uint16_t>(b), n);
      data.count += n;
    }
  }
  for (size_t s = 0; s < kHistogramShards; ++s) {
    data.sum += shards_[s].sum.load(std::memory_order_relaxed);
    data.max = std::max(data.max, shards_[s].max.load(std::memory_order_relaxed));
  }
  return data;
}

void Histogram::Reset() {
  for (size_t s = 0; s < kHistogramShards; ++s) {
    for (size_t b = 0; b < kNumBuckets; ++b) {
      shards_[s].counts[b].store(0, std::memory_order_relaxed);
    }
    shards_[s].sum.store(0, std::memory_order_relaxed);
    shards_[s].max.store(0, std::memory_order_relaxed);
  }
}

namespace {

// Indexed by Stage: histogram suffix ("stage.<x>") and span name.
constexpr const char* kStageNames[kStageCount][2] = {
    {"session_open", "net.session_open"},     {"decode", "net.decode"},
    {"enclave_submit", "net.enclave_submit"}, {"mac_batch", "store.mac_batch"},
    {"search_decrypt", "store.search_decrypt"}, {"mac_verify", "store.mac_verify"},
    {"wal_append", "wal.append"},             {"commit_wait", "wal.commit_wait"},
    {"session_seal", "net.session_seal"},
};

}  // namespace

std::string_view StageName(Stage stage) { return kStageNames[static_cast<size_t>(stage)][0]; }

const char* StageSpanName(Stage stage) { return kStageNames[static_cast<size_t>(stage)][1]; }

Registry::Registry() {
  for (size_t i = 0; i < kStageCount; ++i) {
    std::string name = "stage.";
    name += StageName(static_cast<Stage>(i));
    stages_[i] = &GetHistogram(name);
  }
}

Registry& Registry::Global() {
  // Leaked on purpose: metrics may be recorded from detached threads during
  // process teardown.
  static Registry* global = new Registry();
  return *global;
}

Counter& Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

void Registry::Visit(const std::function<void(const std::string&, const Counter&)>& counter_fn,
                     const std::function<void(const std::string&, const Gauge&)>& gauge_fn,
                     const std::function<void(const std::string&, const Histogram&)>& histogram_fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (counter_fn) {
    for (const auto& [name, c] : counters_) counter_fn(name, *c);
  }
  if (gauge_fn) {
    for (const auto& [name, g] : gauges_) gauge_fn(name, *g);
  }
  if (histogram_fn) {
    for (const auto& [name, h] : histograms_) histogram_fn(name, *h);
  }
}

}  // namespace shield::obs
