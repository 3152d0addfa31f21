// Operation log — the paper's §7 "alternative fine-grained design": instead
// of losing everything since the last snapshot, log each mutation to
// persistent storage. The paper rejects the naive form because sealing every
// record against a hardware monotonic counter is prohibitively slow, and
// points at ROTE/LCM-style mitigations; this extension implements the
// practical middle ground those systems enable:
//
//  * records are encrypted + MAC-chained (each record's MAC covers its
//    predecessor's), so order, content, and truncation-before-commit are
//    all authenticated without per-record counter bumps;
//  * the monotonic counter is bumped once per GROUP COMMIT, amortizing its
//    cost over every record in the group (the counter-service cost knob
//    models either the slow SGX counter or a fast ROTE-style one);
//  * recovery = snapshot + replay of the committed log suffix; a replayed
//    stale log (or one from a different epoch) fails the counter check.
//
// One OperationLog is one append-only file. The sharded WriteAheadStore
// (selfheal.h) runs one log per partition group; this class stays
// single-file and externally synchronized (callers hold their shard lock).
//
// One commit discipline: AppendSet/AppendDelete never commit; the caller
// batches explicitly via CommitPrepare() (counter bump + commit record +
// flush to the OS, under the caller's lock) followed by CommitSync() (the
// fsync, safe to run after dropping the lock so concurrent appends land in
// the next group). This is the group-commit batcher's leader/follower split.
//
// This module is an EXTENSION beyond the paper's implementation; the
// evaluation figures never enable it.
#ifndef SHIELDSTORE_SRC_SHIELDSTORE_OPLOG_H_
#define SHIELDSTORE_SRC_SHIELDSTORE_OPLOG_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/sgx/counter.h"
#include "src/sgx/seal.h"
#include "src/shieldstore/store.h"

namespace shield::shieldstore {

// One mutation as shipped to a replica: the resulting state (value for
// set-like ops, tombstone for delete), exactly what the WAL records — replay
// on the standby is therefore as deterministic as local log replay.
struct ReplicatedOp {
  bool is_delete = false;
  std::string key;
  std::string value;
};

// Cross-process replication hook. The WriteAheadStore's group-commit leader
// calls ShipCommitted AFTER its batch is fsync'd and BEFORE any writer in the
// batch is acknowledged — so with a healthy sink, acked ⇒ logged ∧ shipped.
// `first_seq` numbers entries in a per-shard ship-sequence space that is
// monotone across compactions (unlike the WAL's own record sequence, which
// resets when a shard log is truncated); a sink resumes a reconnected
// follower from its watermark in this space.
//
// Called outside the shard lock (one in-flight call per shard, but shards
// ship concurrently), so implementations must be thread-safe and should
// buffer-and-return rather than block forever: a slow sink stalls that
// shard's acks, which is the synchronous-replication contract, but a DEAD
// sink must fail fast so the primary can keep serving (the invariant then
// degrades to acked ⇒ logged ∧ recoverable-from-local-WAL).
class ReplicationSink {
 public:
  virtual ~ReplicationSink() = default;
  virtual Status ShipCommitted(size_t shard, uint64_t first_seq,
                               std::vector<ReplicatedOp> ops) = 0;
};

struct OpLogOptions {
  std::string path;  // log file (shard i of a sharded WAL appends ".p<i>")

  // --- knobs interpreted by the sharded WriteAheadStore (selfheal.h) ---

  // Log shards. 0 = one shard per partition (the scalable default: writers
  // to different partitions never contend); 1 reproduces the PR 2 single
  // global log; k < partitions maps partition p to shard p % k.
  size_t num_shards = 0;
  // Group-commit window in microseconds. A mutation returns only once its
  // record is fsync'd; a commit leader batches every record that arrives
  // within the window (or until group_commit_ops accumulate, whichever
  // first) into one counter-bump + fsync. 0 = the leader commits at once.
  uint32_t group_commit_window_us = 0;
  size_t group_commit_ops = 64;  // records that close a group commit early
  // Threads RestoreFromDisk uses to replay shard logs in parallel. 0 = auto
  // (bounded by the hardware); 1 = sequential.
  size_t replay_threads = 0;

  // Observability: registry receiving every WAL metric — the stage
  // histograms, group-commit, compaction and replication series (registered
  // by WriteAheadStore), and the log's own record/commit/fsync counts,
  // live log bytes and wal.fsync_ns latency (registered here, plus the
  // per-shard record/size series when shard_index >= 0). nullptr uses
  // obs::Registry::Global().
  obs::Registry* metrics = nullptr;
  // Which WAL shard this log backs; >= 0 registers wal.shard<i>.records and
  // wal.shard<i>.log_bytes under `metrics`. -1 (standalone logs, replay-only
  // options) registers no per-shard series.
  int shard_index = -1;
};

// Where a log's committed prefix ends: the state OperationLog::Open needs to
// continue the chain right after the last commit record. Replay reports it,
// so a boot that replays a log can open it without reading it again.
struct LogTail {
  int32_t counter_id = -1;
  uint64_t bytes = 0;     // header plus every frame through the last commit
  crypto::Mac chain{};    // seal tag of the last commit record (zero if none)
  uint64_t sequence = 0;  // records through the last commit record
};

class OperationLog {
 public:
  // `sealer` protects record confidentiality/integrity (bound to the
  // enclave measurement); `counters` provides rollback protection at group
  // commit granularity.
  OperationLog(const sgx::SealingService& sealer, sgx::MonotonicCounterService& counters,
               const OpLogOptions& options);
  ~OperationLog();

  OperationLog(const OperationLog&) = delete;
  OperationLog& operator=(const OperationLog&) = delete;

  // Opens (creating or appending). Must be called before logging. An
  // existing log is cut back to its last commit record before anything is
  // appended: a torn frame or uncommitted records past it would otherwise
  // sit between the committed prefix and the new records, so a later scan
  // would fail authentication there or a later commit would adopt them.
  // `tail` (from Replay) skips the scan that finds the cut.
  Status Open(const LogTail* tail = nullptr);

  // Appends one mutation without any commit side effect. The caller owns
  // the commit cadence (see the leader/follower split above).
  Status AppendSet(std::string_view key, std::string_view value);
  Status AppendDelete(std::string_view key);

  // Forces a group commit (counter bump + flush + fsync).
  Status Commit();
  // The two halves of Commit(), split so a group-commit leader can run the
  // fsync outside its shard lock: Prepare bumps the counter, appends the
  // commit record and flushes it to the OS (must run under the caller's
  // lock); Sync fsyncs the file descriptor (touches no chain state, so
  // concurrent AppendRecord/fflush through the same FILE* must still be
  // excluded by the caller — only Sync itself is lock-free-safe).
  Status CommitPrepare();
  Status CommitSync();

  // Truncates the log to a fresh, committed epoch (after a successful
  // snapshot subsumes it), keeping its counter. The new epoch replaces the
  // file atomically, so a crash never leaves the log missing or empty.
  Status Reset();

  // Bytes in the log file (header + frames), tracked so the compactor can
  // bound log growth without stat() calls. Read under the caller's lock.
  uint64_t log_bytes() const { return log_bytes_; }
  // The monotonic counter this log's commits bump (-1 before Open).
  int32_t counter_id() const { return counter_id_; }

  // Replays the committed prefix of the log into `store`, newest state
  // winning. Fails with kIntegrityFailure on any tampering / reordering /
  // mid-chain truncation, and kRollbackDetected when the final commit's
  // counter value does not match the live counter. A missing or empty log
  // is kNotFound (callers treat it as "nothing to replay"). On success
  // `tail`, when given, receives the committed tail for Open.
  static Status Replay(const sgx::SealingService& sealer,
                       sgx::MonotonicCounterService& counters, const OpLogOptions& options,
                       kv::KeyValueStore& store, LogTail* tail = nullptr);

 private:
  // Creates a fresh log bound to a new monotonic counter.
  Status Create();
  Status AppendRecord(uint8_t op, std::string_view key, std::string_view value);
  // Moves log_bytes_ and the registry's live-bytes total together.
  void SetLogBytes(uint64_t bytes);

  const sgx::SealingService& sealer_;
  sgx::MonotonicCounterService& counters_;
  OpLogOptions options_;
  FILE* file_ = nullptr;
  int32_t counter_id_ = -1;
  crypto::Mac chain_mac_{};  // MAC of the previous record (zero at start)
  uint64_t sequence_ = 0;
  uint64_t uncommitted_ = 0;
  uint64_t pending_commit_value_ = 0;  // value CommitPrepare wrote, pre-bump
  uint64_t log_bytes_ = 0;
  // Registry handles cached at construction (OpLogOptions::metrics). The
  // totals are shared by every log of the registry; the per-shard gauge
  // updates only at commit/reset cadence, never per append.
  obs::Counter* records_ = nullptr;          // wal.records
  obs::Counter* commits_ = nullptr;          // wal.commits
  obs::Counter* fsyncs_ = nullptr;           // wal.fsyncs
  obs::Gauge* total_log_bytes_ = nullptr;    // wal.log_bytes (live logs)
  obs::Histogram* fsync_latency_ = nullptr;  // wal.fsync_ns
  obs::Counter* shard_records_ = nullptr;    // wal.shard<i>.records
  obs::Gauge* shard_log_bytes_ = nullptr;    // wal.shard<i>.log_bytes
};

}  // namespace shield::shieldstore

#endif  // SHIELDSTORE_SRC_SHIELDSTORE_OPLOG_H_
