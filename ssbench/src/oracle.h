// Correctness oracle for the daemon workloads.
//
// Every Set writes workload::ValueFor(key, version). Versions are unique per
// run: connection c issues 1 + c, 1 + c + kStride, 1 + c + 2*kStride, ...,
// and version 0 is the preload. The oracle remembers which key each version
// was issued for and a global sequence number at issue and at ack, so:
//  * a Get must return exactly ValueFor(key, v) for a v issued for that key;
//  * after a restart a key must read back a version that no acked write on
//    the key strictly follows: a value w is stale (an acked write was lost)
//    when some acked write w' on the key was issued after w was acked.
// Unacked (timed-out) writes may or may not have been applied; they never
// fail the check.
#ifndef SSBENCH_SRC_ORACLE_H_
#define SSBENCH_SRC_ORACLE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>

#include "src/workload/generator.h"

namespace ssbench {

class Oracle {
 public:
  static constexpr uint64_t kStride = 8;  // connection ids 0..7

  Oracle(uint64_t num_keys, size_t value_bytes, uint64_t max_ops_per_connection)
      : value_bytes_(value_bytes),
        per_conn_(max_ops_per_connection),
        versions_(new Version[kStride * max_ops_per_connection]),
        max_issue_of_acked_(new std::atomic<uint64_t>[num_keys]) {
    for (uint64_t k = 0; k < num_keys; ++k) {
      max_issue_of_acked_[k].store(0, std::memory_order_relaxed);
    }
  }

  // Next version for connection `conn`, recorded as issued for `key`. The
  // caller sizes max_ops_per_connection; running past it is a bug.
  uint64_t Issue(uint64_t conn, uint64_t* next_index, uint64_t key) {
    const uint64_t i = (*next_index)++;
    if (i >= per_conn_) {
      std::fprintf(stderr, "oracle: connection %llu ran out of versions\n",
                   static_cast<unsigned long long>(conn));
      std::abort();
    }
    const uint64_t v = 1 + conn + kStride * i;
    Version& slot = versions_[v - 1];
    slot.key.store(key, std::memory_order_relaxed);
    slot.issue_seq.store(seq_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_release);
    return v;
  }

  void Ack(uint64_t key, uint64_t version) {
    const uint64_t ack = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t issue = 0;
    if (version > 0) {
      Version& slot = versions_[version - 1];
      slot.ack_seq.store(ack, std::memory_order_release);
      issue = slot.issue_seq.load(std::memory_order_acquire);
    }
    std::atomic<uint64_t>& max = max_issue_of_acked_[key];
    uint64_t cur = max.load(std::memory_order_relaxed);
    while (cur < issue && !max.compare_exchange_weak(cur, issue, std::memory_order_relaxed)) {
    }
  }

  // Marks the preload (version 0 of every key) acked before any other op.
  void AckPreload() { preload_ack_ = seq_.fetch_add(1, std::memory_order_relaxed) + 1; }

  // Parses the version out of a Get result and checks it was issued for
  // `key` with exactly the expected bytes. Returns false with `why` set.
  bool CheckValue(uint64_t key, std::string_view value, uint64_t* version,
                  std::string* why) const {
    *version = 0;
    const std::string prefix = "v" + std::to_string(key) + ":";
    if (value.size() != value_bytes_ || value.substr(0, prefix.size()) != prefix) {
      *why = "key " + std::to_string(key) + ": value has wrong size or prefix";
      return false;
    }
    uint64_t v = 0;
    for (size_t i = prefix.size(); i < value.size() && value[i] >= '0' && value[i] <= '9'; ++i) {
      v = v * 10 + static_cast<uint64_t>(value[i] - '0');
    }
    if (v > 0 && (v - 1 >= kStride * per_conn_ ||
                  versions_[v - 1].issue_seq.load(std::memory_order_acquire) == 0 ||
                  versions_[v - 1].key.load(std::memory_order_relaxed) != key)) {
      *why = "key " + std::to_string(key) + ": version " + std::to_string(v) +
             " was never issued for it";
      return false;
    }
    if (value != shield::workload::ValueFor(key, v, value_bytes_)) {
      *why = "key " + std::to_string(key) + ": value bytes differ from version " +
             std::to_string(v);
      return false;
    }
    *version = v;
    return true;
  }

  // Restart readback: the value must also not be older than an acked write.
  bool CheckDurable(uint64_t key, std::string_view value, std::string* why) const {
    uint64_t v = 0;
    if (!CheckValue(key, value, &v, why)) {
      return false;
    }
    const uint64_t ack =
        v == 0 ? preload_ack_ : versions_[v - 1].ack_seq.load(std::memory_order_acquire);
    const uint64_t newest_issue = max_issue_of_acked_[key].load(std::memory_order_relaxed);
    if (ack != 0 && newest_issue > ack) {
      *why = "key " + std::to_string(key) + ": read back version " + std::to_string(v) +
             " but a later acked write was lost";
      return false;
    }
    return true;
  }

  size_t value_bytes() const { return value_bytes_; }

 private:
  struct Version {
    std::atomic<uint64_t> key{0};
    std::atomic<uint64_t> issue_seq{0};
    std::atomic<uint64_t> ack_seq{0};
  };

  size_t value_bytes_;
  uint64_t per_conn_;
  std::unique_ptr<Version[]> versions_;
  std::unique_ptr<std::atomic<uint64_t>[]> max_issue_of_acked_;
  std::atomic<uint64_t> seq_{0};
  uint64_t preload_ack_ = 0;
};

}  // namespace ssbench

#endif  // SSBENCH_SRC_ORACLE_H_
