// Process-wide observability registry: lock-free sharded counters and
// gauges, log2-bucketed latency histograms with quantile extraction, and the
// per-operation stage histograms that obs::Scope (tracer.h) records into.
//
// Recording is designed to stay always-on: every hot-path mutation is one
// relaxed atomic RMW on a per-thread cacheline-padded shard, folded only
// when a snapshot is taken. Building with -DSHIELD_METRICS=OFF defines
// SHIELD_OBS_NOOP and compiles every recording call to nothing, which is
// what the check.sh overhead gate compares against.
#ifndef SHIELDSTORE_SRC_OBS_METRICS_H_
#define SHIELDSTORE_SRC_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/cycles.h"
#include "src/common/thread_shard.h"

#if defined(SHIELD_OBS_NOOP)
#define SHIELD_OBS_ENABLED 0
#else
#define SHIELD_OBS_ENABLED 1
#endif

namespace shield::obs {

struct MetricsSnapshot;  // snapshot.h

// Number of cacheline-padded slots per counter/histogram. Threads hash to a
// stable slot, so two service threads rarely contend on the same line.
inline constexpr size_t kCounterShards = 16;
inline constexpr size_t kHistogramShards = 8;

// Monotonic counter. Inc is a relaxed fetch_add on the caller's shard.
class Counter {
 public:
  void Inc(uint64_t n = 1) {
#if SHIELD_OBS_ENABLED
    slots_[ThreadShard(kCounterShards)].v.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void Reset() {
    for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  Slot slots_[kCounterShards];
};

// Signed up/down gauge (in-flight requests, resident bytes). Sharded the
// same way; Value folds to the instantaneous net sum.
class Gauge {
 public:
  void Add(int64_t n) {
#if SHIELD_OBS_ENABLED
    slots_[ThreadShard(kCounterShards)].v.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  void Set(int64_t n) {
#if SHIELD_OBS_ENABLED
    // Collapse every shard into slot 0; only used off the hot path.
    for (size_t i = 1; i < kCounterShards; ++i) slots_[i].v.store(0, std::memory_order_relaxed);
    slots_[0].v.store(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  int64_t Value() const {
    int64_t total = 0;
    for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void Reset() {
    for (Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<int64_t> v{0};
  };
  Slot slots_[kCounterShards];
};

// Folded histogram contents: sparse (bucket index, count) pairs plus
// count/sum/max, the unit of snapshot transport and quantile math.
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;  // sum of recorded values (ns for latency histograms)
  uint64_t max = 0;
  std::vector<std::pair<uint16_t, uint64_t>> buckets;  // ascending index, count > 0

  // Quantile estimate by cumulative bucket walk with linear interpolation
  // inside the target bucket. q in [0, 1]; returns 0 for an empty histogram.
  // Error is bounded by the bucket width: <= 25% relative for values >= 16.
  double Quantile(double q) const;
  double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count); }
  void Merge(const HistogramData& other);
  // Per-bucket subtraction of an earlier snapshot of the same histogram,
  // used by Delta(). Saturates at zero; max is kept from *this.
  void Subtract(const HistogramData& earlier);
};

// Log2 histogram with 2 sub-bucket bits: 4 linear sub-buckets per octave,
// 160 buckets covering [0, 2^40) ns (~18 minutes) with <= 25% relative
// bucket error. Record is one relaxed fetch_add per sample.
class Histogram {
 public:
  static constexpr size_t kSubBits = 2;
  static constexpr size_t kSubCount = size_t{1} << kSubBits;  // 4
  static constexpr size_t kNumBuckets = 160;

  static size_t BucketOf(uint64_t value) {
    if (value < kSubCount) return static_cast<size_t>(value);
    const int exp = std::bit_width(value) - 1;  // >= 2
    const size_t sub = static_cast<size_t>(value >> (exp - kSubBits)) & (kSubCount - 1);
    const size_t index = static_cast<size_t>(exp - 1) * kSubCount + sub;
    return index < kNumBuckets ? index : kNumBuckets - 1;
  }
  // Smallest value mapping to `index` (inverse of BucketOf).
  static uint64_t BucketLowerBound(size_t index) {
    if (index < kSubCount) return index;
    const size_t exp = index / kSubCount + 1;
    const size_t sub = index % kSubCount;
    return (uint64_t{1} << exp) + (static_cast<uint64_t>(sub) << (exp - kSubBits));
  }
  static uint64_t BucketUpperBound(size_t index) {
    return index + 1 < kNumBuckets ? BucketLowerBound(index + 1) : BucketLowerBound(index) * 2;
  }

  Histogram();
  void Record(uint64_t value) {
#if SHIELD_OBS_ENABLED
    Shard& s = shards_[ThreadShard(kHistogramShards)];
    s.counts[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = s.max.load(std::memory_order_relaxed);
    while (value > seen && !s.max.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
#else
    (void)value;
#endif
  }
  void RecordCycles(uint64_t cycles) {
#if SHIELD_OBS_ENABLED
    Record(CyclesToNanoseconds(cycles));
#else
    (void)cycles;
#endif
  }

  HistogramData Data() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> counts[kNumBuckets];
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };
  std::unique_ptr<Shard[]> shards_;
};

// Stages of one operation's journey across the trust boundary; each has an
// always-registered latency histogram named "stage.<name>" and, under a
// sampled trace, a span named StageSpanName() (see obs::Scope, tracer.h).
enum class Stage : uint8_t {
  kSessionOpen = 0,  // AEAD open of the request record (in enclave)
  kDecode,           // request/batch decode (in enclave)
  kEnclaveSubmit,    // boundary round-trip: HotCall post->done or direct ECALL
  kMacBatch,         // MAC-batch scope close: deferred bucket-set recomputes
  kSearchDecrypt,    // bucket chain search + entry decrypt
  kMacVerify,        // bucket-set MAC verification
  kWalAppend,        // WAL record append under the shard lock
  kCommitWait,       // group-commit durable ack wait (leader or follower)
  kSessionSeal,      // AEAD seal of the response record (in enclave)
};
inline constexpr size_t kStageCount = 9;
std::string_view StageName(Stage stage);
// Span name of each stage, "<layer>.<stage>" (e.g. "wal.append"); a static
// literal, as the tracer requires.
const char* StageSpanName(Stage stage);

// Named-metric registry. Lookup takes a mutex and is meant for start-up;
// hot paths cache the returned pointers (stable for the registry lifetime).
class Registry {
 public:
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Process-wide default instance, used when no registry is injected.
  static Registry& Global();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);
  Histogram& StageHistogram(Stage stage) { return *stages_[static_cast<size_t>(stage)]; }

  // Tear-free fold of every metric (each value is an atomic fold; the set
  // of metrics is walked under the registry mutex). Defined in snapshot.cc.
  MetricsSnapshot Snapshot() const;

  // Zeroes every registered metric (tests / bench warm-up discard).
  void Reset();

  // Walks all metrics under the registry mutex, in name order.
  void Visit(const std::function<void(const std::string&, const Counter&)>& counter_fn,
             const std::function<void(const std::string&, const Gauge&)>& gauge_fn,
             const std::function<void(const std::string&, const Histogram&)>& histogram_fn) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  Histogram* stages_[kStageCount];
};

// Cycle-count read for manual latency measurement; compiles to 0 in the
// no-op build so the disabled flavour pays for neither rdtsc.
inline uint64_t TimerStart() {
#if SHIELD_OBS_ENABLED
  return ReadCycleCounter();
#else
  return 0;
#endif
}

}  // namespace shield::obs

#endif  // SHIELDSTORE_SRC_OBS_METRICS_H_
