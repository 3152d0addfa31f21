// Stable per-thread shard index for cacheline-sharded counters.
#ifndef SHIELDSTORE_SRC_COMMON_THREAD_SHARD_H_
#define SHIELDSTORE_SRC_COMMON_THREAD_SHARD_H_

#include <atomic>
#include <cstddef>

namespace shield {

// The calling thread's shard in [0, limit). Threads take indices round-robin
// on first use, so up to `limit` threads never share a shard. Cheap after
// the first call.
inline size_t ThreadShard(size_t limit) {
  static std::atomic<size_t> next{0};
  static thread_local const size_t assigned = next.fetch_add(1, std::memory_order_relaxed);
  return assigned % limit;
}

}  // namespace shield

#endif  // SHIELDSTORE_SRC_COMMON_THREAD_SHARD_H_
