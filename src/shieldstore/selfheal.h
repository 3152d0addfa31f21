// Write-ahead logging and online partition self-healing.
//
//  * WriteAheadStore runs one operation-log shard per partition (or per
//    partition group, OpLogOptions::num_shards), each with its own mutex,
//    record chain, monotonic counter and fsync cadence. Every mutation —
//    a singleton verb is a batch of one — goes through ExecuteBatch: it
//    locks only its keys' shards, applies to the inner store, appends to
//    those shards' logs, and is acked once a group commit has fsync'd its
//    records. Reads bypass the log.
//  * Group commit: the first writer to find its shard's batch open becomes
//    the commit leader; it waits for the window to close (adaptive, capped
//    at OpLogOptions::group_commit_window_us, or group_commit_ops records),
//    writes the commit record under the shard lock, then fsyncs with the
//    lock released so other writers append into the next batch. One fsync
//    and one counter bump serve every writer in the window.
//  * Bounded-log compaction: SelfHealer::Tick folds an oversized shard's
//    partitions into a fresh snapshot generation (or an arena checkpoint)
//    and truncates the shard log to a fresh epoch. A crash anywhere in that
//    sequence recovers: either the old generation plus the full log replay,
//    or the new generation plus a log whose final values it already holds.
//  * Recovery: the healer commits one shard's log and replays it while
//    holding that shard's lock (WithCommittedShard), so only mutations to
//    that shard's partitions wait; other shards and all reads keep serving.
#ifndef SHIELDSTORE_SRC_SHIELDSTORE_SELFHEAL_H_
#define SHIELDSTORE_SRC_SHIELDSTORE_SELFHEAL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/shieldstore/oplog.h"
#include "src/shieldstore/partitioned.h"

namespace shield::shieldstore {

// Write-ahead facade: apply to the partitioned store, then log to the key's
// shard, then return — an operation is acknowledged only once its record
// in that shard's log is covered by an fsync'd group commit. Per-shard locks
// serialize (apply + append) so each log's record order is its partitions'
// apply order, which is what makes per-partition replay deterministic.
// Get routes straight to the inner store. The shard vector, like the inner
// store's partition vector, is fixed at construction; lock order is shard
// mutex → partition mutex.
class WriteAheadStore : public kv::KeyValueStore {
 public:
  WriteAheadStore(PartitionedStore& inner, const sgx::SealingService& sealer,
                  sgx::MonotonicCounterService& counters, const OpLogOptions& options);

  // Opens (or reopens) every shard log. Must succeed before serving
  // mutations. Shard i lives at options.path + ".p<i>".
  Status Open();

  // The four mutations are batches of one through ExecuteBatch.
  Status Set(std::string_view key, std::string_view value) override;
  Result<std::string> Get(std::string_view key) override;
  Status Delete(std::string_view key) override;
  Status Append(std::string_view key, std::string_view suffix) override;
  Result<int64_t> Increment(std::string_view key, int64_t delta) override;
  // The one mutation path, under ONE group-commit handle per touched shard:
  // the shard's sub-ops apply (partition-grouped, via the inner
  // ExecuteBatch) and append to the shard log under a single lock hold,
  // then a single AwaitDurable on the last record's sequence covers the
  // whole group, so an ack means fsync'd whatever the batch size. Gets ride
  // in their key's shard group so per-key read-after-write order within the
  // batch is preserved; a batch with no mutations skips the shard locks
  // entirely.
  std::vector<kv::BatchOpResult> ExecuteBatch(const std::vector<kv::BatchOp>& ops) override;
  size_t Size() const override { return inner_.Size(); }
  std::string Name() const override { return "ShieldStore/write-ahead"; }
  kv::StoreStats stats() const override { return inner_.stats(); }

  // Group-commits shard `shard` and runs `fn` while still holding its lock —
  // no mutation on that shard's partitions can slip between the commit and
  // `fn`. This is the recovery window: `fn` replays the shard log knowing
  // its committed tail matches the live counter. Other shards keep serving.
  Status WithCommittedShard(size_t shard, const std::function<Status()>& fn);
  // Same, over every shard at once (drains the whole store; used by
  // ExportHeapFiles and tests).
  Status WithCommittedLog(const std::function<Status()>& fn);

  // --- compaction ---

  // Crash-point injection for the compaction sequence (tests). The snapshot
  // points map onto Snapshotter::CrashPoint; kBeforeTruncate dies after the
  // snapshots commit but before the log is reset.
  enum class CompactionCrash {
    kNone,
    kSnapshotTempWrite,  // Snapshotter::CrashPoint::kAfterTempWrite
    kSnapshotRename,     // Snapshotter::CrashPoint::kAfterRename
    kBeforeTruncate,
  };

  // Folds the committed state of every partition served by `shard` into a
  // fresh snapshot generation under `directory` (the SnapshotAll layout) —
  // or, with Options::persist_dir, into an incremental arena checkpoint
  // (dirty buckets + superblock, no full rewrite) — then truncates the
  // shard log to a fresh epoch. Runs under the shard lock: mutations to
  // those partitions wait, everything else proceeds. Refuses
  // (kPartitionRecovering) while a served partition is quarantined — its
  // in-memory state is untrusted and the log suffix is its recovery input.
  Status CompactShard(size_t shard, const std::string& directory,
                      CompactionCrash crash = CompactionCrash::kNone);

  // Commits and truncates every shard log to a fresh epoch, deleting any
  // stale shard files beyond the current count. Call right after a baseline
  // SnapshotAll: the snapshots subsume everything the logs held.
  Status ResetAllLogs();

  // Route-agnostic restore of a previous run's durable state into the
  // (empty) inner store: every partition snapshot generation under
  // `snapshot_directory` (the SnapshotAll layout of ANY geometry — the
  // route key is drawn fresh each boot, so keys are re-routed through the
  // facade), then the committed suffix of every shard log found on disk.
  // Call after Open() and before serving; follow with SelfHealer::Start()
  // (or ResetAllLogs()) so the restored state becomes the new baseline.
  //
  // With Options::persist_dir the baseline is the mmap'd heap files, not
  // snapshots: the sealed route key is loaded (so routing matches the files'
  // chain layout), every partition attaches its arena's committed generation
  // — O(1) in entry count, per-entry MAC verification deferred to first
  // touch — and only the WAL tail replays. Sets the heap.restart_ns gauge.
  Status RestoreFromDisk(const std::string& snapshot_directory);

  // Copies the committed persistent-heap files (p<i>.heap + route.seal) into
  // `destination_dir`, checkpointing every partition first under the full
  // log lock so the copies are self-consistent: this is the file-shipped
  // replica bootstrap path — a replica maps the copies and attaches in O(1),
  // lazily re-verifying entries as it serves. kUnsupported without
  // Options::persist_dir. The monotonic-counter backing file is NOT copied
  // (it belongs to the counter service, not the store); ship it alongside.
  Status ExportHeapFiles(const std::string& destination_dir);

  PartitionedStore& inner() { return inner_; }
  size_t num_shards() const { return shards_.size(); }
  size_t ShardOfPartition(size_t p) const { return p % shards_.size(); }
  // Bytes in `shard`'s log (takes the shard lock).
  uint64_t ShardLogBytes(size_t shard);
  // Current adaptive group-commit window for `shard`.
  uint32_t shard_window_us(size_t shard) const;
  const OpLogOptions& shard_log_options(size_t shard) const;
  // The registry holding every wal.* metric (OpLogOptions::metrics, or the
  // global one); the SelfHealer registers its heal.* counters here too.
  obs::Registry* metrics() const { return metrics_; }

  // Installs (nullptr clears) the replication sink. From then on every
  // mutation record is captured at append time and handed to the sink once
  // its group commit fsyncs, BEFORE any writer in the group is acked — see
  // ReplicationSink for the ordering contract. Records appended while no
  // sink was installed are NOT buffered retroactively; the sink's attach-
  // time bootstrap snapshot is what covers them. Safe to call while serving.
  void SetReplicationSink(ReplicationSink* sink);
  ReplicationSink* replication_sink() const {
    return sink_.load(std::memory_order_acquire);
  }

 private:
  struct Shard {
    explicit Shard(OpLogOptions opts) : options(std::move(opts)) {}
    OpLogOptions options;  // options.path is this shard's file
    std::unique_ptr<OperationLog> log;
    size_t index = 0;  // position in shards_ (shipped to the sink as-is)
    // Adaptive group-commit window (microseconds). Starts at the configured
    // cap (options.group_commit_window_us); each leader halves it after a
    // near-empty batch (solo writers should not wait out a window sized for
    // bursts) and doubles it back toward the cap after a full one. Floor is
    // cap/16 (min 1). Read by the next leader, so adjustments take effect on
    // the following batch.
    std::atomic<uint32_t> window_us{0};
    std::mutex mutex;  // serializes apply + append for this shard's partitions
    std::condition_variable cv;  // group-commit leader/follower handoff
    uint64_t appended = 0;       // records appended
    uint64_t durable = 0;        // records known fsync'd
    bool committing = false;     // a leader is inside CommitPrepare/Sync
    // Replication: records captured at append time, drained to the sink at
    // commit time. ship_seq counts records ever handed to the sink in a
    // sequence space that — unlike `appended`, which restarts with Open() —
    // is monotone for the life of this process; follower watermarks live in
    // this space.
    std::vector<ReplicatedOp> pending_ship;
    uint64_t ship_seq = 0;
    std::chrono::steady_clock::time_point batch_start{};
    Status failed;  // latched fatal commit error: durability can no longer
                    // be promised, so every later mutation fails fast
    // Per-shard observability (wal.shard<i>.*), cached at construction.
    obs::Counter* ctr_commit_waits = nullptr;
    obs::Counter* ctr_compactions = nullptr;
  };

  Shard& shard(size_t s) { return *shards_[s]; }
  // Runs `op` as a batch of one.
  kv::BatchOpResult ExecuteOne(kv::BatchOp op);
  // Appends one record under `lock` and assigns it a sequence.
  Status AppendLocked(Shard& s, bool is_delete, std::string_view key,
                      std::string_view value, uint64_t* my_seq);
  // Blocks until `my_seq` is fsync'd, becoming the commit leader if the
  // batch has none.
  Status AwaitDurable(Shard& s, std::unique_lock<std::mutex>& lock, uint64_t my_seq);
  Status CommitShardLocked(Shard& s, std::unique_lock<std::mutex>& lock);
  // Drains s.pending_ship to the sink under the shard lock (maintenance-
  // commit path; the group-commit leader instead steals the buffer under the
  // lock and ships outside it). Clears the buffer without shipping when no
  // sink is installed. Never fails the caller: a sink rejection only bumps
  // wal.ship_failures.
  void ShipLocked(Shard& s);
  std::vector<OpLogOptions> ShardLogsOnDisk() const;

  PartitionedStore& inner_;
  const sgx::SealingService& sealer_;
  sgx::MonotonicCounterService& counters_;
  OpLogOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<ReplicationSink*> sink_{nullptr};

  // Metric handles cached at construction (see OpLogOptions::metrics).
  obs::Registry* metrics_ = nullptr;
  obs::Histogram* commit_batch_hist_ = nullptr;  // wal.commit_batch_ops (records/commit)
  obs::Counter* group_commits_ = nullptr;        // wal.group_commits
  obs::Counter* compactions_ = nullptr;          // wal.compactions
  obs::Counter* compacted_bytes_ = nullptr;      // wal.compacted_bytes
  obs::Counter* shipped_records_ = nullptr;      // wal.shipped_records (sink accepted)
  obs::Counter* ship_failures_ = nullptr;        // wal.ship_failures (sink rejected)
  obs::Gauge* window_gauge_ = nullptr;           // wal.window_us (last adapted window)
  obs::Gauge* replication_attached_ = nullptr;   // wal.replication_attached (0/1)
};

struct SelfHealOptions {
  // Snapshot directory (SnapshotAll layout: manifest + p<i>/ per partition).
  // Start() writes the baseline generation here; recoveries read it.
  std::string directory;
  // Buckets audited per Tick (0 = the store Options' scrub_budget_buckets).
  size_t scrub_budget_buckets = 0;
  // Run the paced background scrub on idle ticks.
  bool scrub = true;
  // Stop retrying a partition after this many consecutive failed recovery
  // attempts (it stays quarantined; operators see failed_recoveries()).
  int max_recovery_attempts = 8;
  // Compact a shard's log once it exceeds this many bytes (0 = never).
  // Ticks check one shard per call, round-robin, after recovery work.
  size_t compact_log_bytes = 0;
};

// Self-healing state machine per partition:
//
//   healthy --(violation detected by an op, the scrub, or ScrubAll)-->
//   quarantined --(Tick picks it up)--> recovering --(snapshot + committed
//   shard-log replay succeeds)--> healthy
//
// Tick() is cheap when there is nothing to do; drive it from the network
// server's maintenance thread (or any single background thread). Each tick
// does at most one unit of work, in priority order: recover one quarantined
// partition, else compact one oversized shard log, else advance the scrub.
class SelfHealer {
 public:
  SelfHealer(WriteAheadStore& wal, const sgx::SealingService& sealer,
             sgx::MonotonicCounterService& counters, SelfHealOptions options);

  // Restores the previous run's durable state (snapshots + committed shard
  // logs) into the inner store. Call before Start(), on an empty store.
  Status Restore();

  // Writes the baseline snapshot of every (healthy) partition and truncates
  // the shard logs it subsumes. Call once, before traffic; recovery = this
  // baseline + each shard's log from then on.
  Status Start();

  // One maintenance step: recover at most one quarantined partition, else
  // compact at most one oversized shard log, else spend one scrub budget.
  // Single-threaded driver assumed.
  void Tick();

  // Counters live in the WAL's registry (heal.*), so with several healers
  // on one registry they read the sum.
  uint64_t recoveries() const { return recoveries_->Value(); }
  uint64_t failed_recoveries() const { return failed_recoveries_->Value(); }
  uint64_t violations_detected() const { return violations_detected_->Value(); }
  uint64_t compactions() const { return compactions_->Value(); }
  Status last_error() const;

 private:
  Status RecoverOne(size_t p);
  // Compacts the next oversized shard (round-robin); false if none was due.
  bool CompactOne();

  WriteAheadStore& wal_;
  const sgx::SealingService& sealer_;
  sgx::MonotonicCounterService& counters_;
  SelfHealOptions options_;

  std::vector<int> attempts_;  // consecutive failed recoveries per partition
  std::atomic<size_t> compact_cursor_{0};
  obs::Counter* ticks_;                // heal.ticks
  obs::Counter* recoveries_;           // heal.recoveries
  obs::Counter* failed_recoveries_;    // heal.failed_recoveries
  obs::Counter* violations_detected_;  // heal.violations_detected
  obs::Counter* compactions_;          // heal.compactions
  mutable std::mutex error_mutex_;
  Status last_error_;
};

}  // namespace shield::shieldstore

#endif  // SHIELDSTORE_SRC_SHIELDSTORE_SELFHEAL_H_
