#include "src/shieldstore/selfheal.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>

#include "src/common/logging.h"
#include "src/obs/audit.h"
#include "src/obs/tracer.h"

namespace shield::shieldstore {
namespace {

// The sealed log set, <snapshot dir>/wal.seal: the shard logs the last
// completed rebaseline left and the routing their records follow. Only a
// boot that finds it, under this boot's geometry and route key, continues
// the logs, and a restore fails when a log it lists is gone. Plaintext:
// route-key tag (8) | partitions (8) | each shard log's counter id (4).
constexpr char kLogSetName[] = "wal.seal";
constexpr char kLogSetAad[] = "SSWL1";

struct LogSet {
  uint64_t route_tag = 0;
  uint64_t partitions = 0;
  std::vector<uint32_t> counters;  // shard i's log counter id
};

Bytes EncodeLogSet(const LogSet& set) {
  Bytes plain(16 + 4 * set.counters.size());
  StoreLe64(plain.data(), set.route_tag);
  StoreLe64(plain.data() + 8, set.partitions);
  for (size_t i = 0; i < set.counters.size(); ++i) {
    StoreLe32(plain.data() + 16 + 4 * i, set.counters[i]);
  }
  return plain;
}

// kNotFound when no log set is sealed in `directory`.
Result<LogSet> ReadLogSet(const sgx::SealingService& sealer, const std::string& directory) {
  Result<Bytes> blob = ReadWholeFile(directory + "/" + kLogSetName);
  if (!blob.ok()) {
    return blob.status();
  }
  Result<Bytes> plain = sealer.Unseal(blob.value(), AsBytes(kLogSetAad));
  if (!plain.ok()) {
    return plain.status();
  }
  const Bytes& p = plain.value();
  if (p.size() < 20 || (p.size() - 16) % 4 != 0) {
    return Status(Code::kIntegrityFailure, "sealed log set malformed");
  }
  LogSet set;
  set.route_tag = LoadLe64(p.data());
  set.partitions = LoadLe64(p.data() + 8);
  for (size_t off = 16; off < p.size(); off += 4) {
    set.counters.push_back(LoadLe32(p.data() + off));
  }
  return set;
}

}  // namespace

WriteAheadStore::WriteAheadStore(PartitionedStore& inner, const sgx::SealingService& sealer,
                                 sgx::MonotonicCounterService& counters,
                                 const OpLogOptions& options)
    : inner_(inner), sealer_(sealer), counters_(counters), options_(options) {
  metrics_ = options_.metrics != nullptr ? options_.metrics : &obs::Registry::Global();
  commit_batch_hist_ = &metrics_->GetHistogram("wal.commit_batch_ops");
  group_commits_ = &metrics_->GetCounter("wal.group_commits");
  compactions_ = &metrics_->GetCounter("wal.compactions");
  compacted_bytes_ = &metrics_->GetCounter("wal.compacted_bytes");
  shipped_records_ = &metrics_->GetCounter("wal.shipped_records");
  ship_failures_ = &metrics_->GetCounter("wal.ship_failures");
  window_gauge_ = &metrics_->GetGauge("wal.window_us");
  window_gauge_->Set(static_cast<int64_t>(options_.group_commit_window_us));
  replication_attached_ = &metrics_->GetGauge("wal.replication_attached");
  replication_attached_->Set(0);
  const size_t parts = inner_.num_partitions();
  size_t n = options_.num_shards == 0 ? parts : std::min(options_.num_shards, parts);
  n = std::max<size_t>(n, 1);
  for (size_t i = 0; i < n; ++i) {
    OpLogOptions per_shard = options_;
    per_shard.path = options_.path + ".p" + std::to_string(i);
    per_shard.shard_index = static_cast<int>(i);
    auto s = std::make_unique<Shard>(std::move(per_shard));
    s->index = i;
    s->window_us.store(options_.group_commit_window_us, std::memory_order_relaxed);
    const std::string prefix = "wal.shard" + std::to_string(i) + ".";
    s->ctr_commit_waits = &metrics_->GetCounter(prefix + "commit_waits");
    s->ctr_compactions = &metrics_->GetCounter(prefix + "compactions");
    shards_.push_back(std::move(s));
  }
  metrics_->GetGauge("wal.shards").Set(static_cast<int64_t>(n));
}

void WriteAheadStore::SetReplicationSink(ReplicationSink* sink) {
  sink_.store(sink, std::memory_order_release);
  replication_attached_->Set(sink != nullptr ? 1 : 0);
}

void WriteAheadStore::ShipLocked(Shard& s) {
  if (s.pending_ship.empty()) {
    return;
  }
  ReplicationSink* sink = sink_.load(std::memory_order_acquire);
  if (sink == nullptr) {
    s.pending_ship.clear();  // sink detached mid-flight: nothing to resume
    return;
  }
  std::vector<ReplicatedOp> ops = std::move(s.pending_ship);
  s.pending_ship.clear();
  const uint64_t first = s.ship_seq + 1;
  const size_t n = ops.size();
  s.ship_seq += n;
  if (sink->ShipCommitted(s.index, first, std::move(ops)).ok()) {
    shipped_records_->Inc(n);
  } else {
    ship_failures_->Inc();
  }
}

Status WriteAheadStore::Open() {
  for (auto& shard_ptr : shards_) {
    Shard& s = *shard_ptr;
    s.log = std::make_unique<OperationLog>(sealer_, counters_, s.options);
    const Status st = s.log->Open(s.replayed ? &*s.replayed : nullptr);
    s.replayed.reset();
    if (!st.ok()) {
      return st;
    }
    s.appended = s.durable = 0;
    s.committing = false;
    s.failed = Status::Ok();
  }
  return Status::Ok();
}

Status WriteAheadStore::AppendLocked(Shard& s, bool is_delete, std::string_view key,
                                     std::string_view value, uint64_t* my_seq) {
  if (s.log == nullptr) {
    return Status(Code::kInvalidArgument, "log not open");
  }
  obs::Scope stage(metrics_, obs::Stage::kWalAppend);
  if (s.appended == s.durable && !s.committing) {
    s.batch_start = std::chrono::steady_clock::now();
  }
  if (Status st = is_delete ? s.log->AppendDelete(key) : s.log->AppendSet(key, value);
      !st.ok()) {
    return st;
  }
  *my_seq = ++s.appended;
  if (sink_.load(std::memory_order_acquire) != nullptr) {
    // Captured now, shipped by the commit leader once the record's group
    // fsyncs — the record order in pending_ship is the shard's apply order.
    s.pending_ship.push_back({is_delete, std::string(key), std::string(value)});
  }
  if (s.committing && s.appended - s.durable >= options_.group_commit_ops) {
    s.cv.notify_all();  // batch is full: the leader may close it early
  }
  return Status::Ok();
}

Status WriteAheadStore::AwaitDurable(Shard& s, std::unique_lock<std::mutex>& lock,
                                     uint64_t my_seq) {
  obs::Scope stage(metrics_, obs::Stage::kCommitWait);
  if (s.durable < my_seq) {
    s.ctr_commit_waits->Inc();
  }
  for (;;) {
    if (!s.failed.ok()) {
      return s.failed;
    }
    if (s.durable >= my_seq) {
      return Status::Ok();
    }
    if (s.committing) {
      // Follower: a leader owns the in-flight batch (ours or the next one).
      s.cv.wait(lock);
      continue;
    }
    // Leader: wait out the commit window (or a full batch), then make the
    // group durable. The fsync runs with the shard lock RELEASED so
    // concurrent writers append into the next batch meanwhile. The window
    // is the shard's ADAPTIVE one: sized down when arrival rate is low (a
    // solo writer should not idle out the configured cap for nobody), back
    // up toward the cap under bursts (bigger batches, fewer fsyncs).
    s.committing = true;
    // Leader span: window wait, fsync, and the shipped batch all bill to
    // the op that happened to become the group-commit leader.
    obs::Scope leader_span("wal.group_commit");
    const auto window =
        std::chrono::microseconds(s.window_us.load(std::memory_order_relaxed));
    const auto deadline = s.batch_start + window;
    s.cv.wait_until(lock, deadline, [&] {
      return s.appended - s.durable >= options_.group_commit_ops || !s.failed.ok();
    });
    const uint64_t upto = s.appended;
    Status st = s.failed;
    if (st.ok()) {
      st = s.log->CommitPrepare();
    }
    if (st.ok()) {
      // Steal the replication buffer while still under the lock: the lock
      // was held continuously since `upto` was read, so the buffer holds
      // exactly the records this commit covers (records appended during the
      // fsync below land in a fresh buffer for the NEXT leader). Ship-seqs
      // are assigned here, under the lock, so the per-shard stream stays
      // contiguous; the ship itself runs outside the lock — but strictly
      // before this leader marks anything durable, which is what upgrades
      // every ack in the batch to "fsync'd AND shipped".
      std::vector<ReplicatedOp> to_ship;
      uint64_t ship_first = 0;
      if (sink_.load(std::memory_order_acquire) != nullptr && !s.pending_ship.empty()) {
        to_ship = std::move(s.pending_ship);
        s.pending_ship.clear();
        ship_first = s.ship_seq + 1;
        s.ship_seq += to_ship.size();
      } else {
        s.pending_ship.clear();  // sink detached: drop, nothing to resume
      }
      lock.unlock();
      st = s.log->CommitSync();
      if (!to_ship.empty()) {
        // Ship even if the fsync failed: the seqs are already claimed, the
        // mutations DID apply in memory, and a follower running ahead of a
        // latched-dead primary is harmless — a gap in the stream is not.
        ReplicationSink* sink = sink_.load(std::memory_order_acquire);
        const size_t n = to_ship.size();
        if (sink != nullptr && sink->ShipCommitted(s.index, ship_first,
                                                   std::move(to_ship)).ok()) {
          shipped_records_->Inc(n);
        } else {
          // Sink rejected (or vanished): the invariant degrades to acked ⇒
          // logged ∧ recoverable-from-local-WAL; the primary keeps serving.
          ship_failures_->Inc();
        }
      }
      lock.lock();
    }
    s.committing = false;
    if (st.ok()) {
      // The leader just made (upto - durable) records durable in one
      // counter bump + fsync: the amortization the batch-size histogram
      // exists to show.
      const uint64_t batch = upto - s.durable;
      group_commits_->Inc();
      commit_batch_hist_->Record(batch);
      // Adapt the window to the observed batch: a full batch means writers
      // queued behind the cadence (grow toward the cap, ×2), a near-empty
      // one means the window outlived the arrivals (shrink, ÷2, floored at
      // cap/16 so a burst can climb back within a few commits). Both moves
      // clamp to the cap, so a 0 µs window stays 0.
      const uint32_t cap = options_.group_commit_window_us;
      const uint32_t floor_us = std::max<uint32_t>(cap / 16, 1);
      const uint32_t w = s.window_us.load(std::memory_order_relaxed);
      uint32_t next_w = w;
      if (batch >= options_.group_commit_ops) {
        next_w = std::min<uint32_t>(cap, w * 2);
      } else if (batch <= 2) {
        next_w = std::min<uint32_t>(cap, std::max<uint32_t>(floor_us, w / 2));
      }
      if (next_w != w) {
        s.window_us.store(next_w, std::memory_order_relaxed);
        window_gauge_->Set(static_cast<int64_t>(next_w));
      }
      s.durable = std::max(s.durable, upto);
      if (s.appended > s.durable) {
        // Records that arrived during the fsync open the next window now.
        s.batch_start = std::chrono::steady_clock::now();
      }
    } else {
      // A failed commit leaves durability unknowable for every record at or
      // beyond this batch: latch the shard so nothing further is acked.
      s.failed = st;
    }
    s.cv.notify_all();
    if (!st.ok()) {
      return st;
    }
  }
}

kv::BatchOpResult WriteAheadStore::ExecuteOne(kv::BatchOp op) {
  std::vector<kv::BatchOp> ops;
  ops.push_back(std::move(op));
  return std::move(ExecuteBatch(ops).front());
}

Status WriteAheadStore::Set(std::string_view key, std::string_view value) {
  return ExecuteOne({kv::BatchOpType::kSet, std::string(key), std::string(value), 0}).status;
}

Result<std::string> WriteAheadStore::Get(std::string_view key) {
  return inner_.Get(key);  // reads mutate nothing: no lock, no log record
}

Status WriteAheadStore::Delete(std::string_view key) {
  return ExecuteOne({kv::BatchOpType::kDelete, std::string(key), "", 0}).status;
}

Status WriteAheadStore::Append(std::string_view key, std::string_view suffix) {
  return ExecuteOne({kv::BatchOpType::kAppend, std::string(key), std::string(suffix), 0})
      .status;
}

Result<int64_t> WriteAheadStore::Increment(std::string_view key, int64_t delta) {
  const kv::BatchOpResult r =
      ExecuteOne({kv::BatchOpType::kIncrement, std::string(key), "", delta});
  if (!r.status.ok()) {
    return r.status;
  }
  // The result carries the new value in decimal (the BatchOpResult contract).
  int64_t value = 0;
  std::from_chars(r.value.data(), r.value.data() + r.value.size(), value);
  return value;
}

std::vector<kv::BatchOpResult> WriteAheadStore::ExecuteBatch(
    const std::vector<kv::BatchOp>& ops) {
  if (std::none_of(ops.begin(), ops.end(), [](const kv::BatchOp& op) {
        return op.type != kv::BatchOpType::kGet;
      })) {
    // Nothing to log: reads bypass the WAL and its shard locks, as Get does.
    return inner_.ExecuteBatch(ops);
  }
  std::vector<kv::BatchOpResult> results(ops.size());
  // Group op indices by shard, preserving original order within a group —
  // a key maps to one partition, a partition to one shard, so per-key order
  // survives the grouping and the replay invariant (each log's record order
  // is its partitions' apply order) holds per partition within the group.
  std::vector<std::vector<size_t>> groups(shards_.size());
  std::vector<size_t> mutations(shards_.size(), 0);
  for (size_t i = 0; i < ops.size(); ++i) {
    const size_t sh = ShardOfPartition(inner_.PartitionOf(ops[i].key));
    groups[sh].push_back(i);
    if (ops[i].type != kv::BatchOpType::kGet) {
      ++mutations[sh];
    }
  }
  std::vector<kv::BatchOp> sub_ops;
  std::vector<kv::BatchOpResult> sub_results;
  for (size_t sh = 0; sh < groups.size(); ++sh) {
    if (groups[sh].empty()) {
      continue;
    }
    // A batch that touches one shard (every singleton) is its own group:
    // no copy.
    const std::vector<kv::BatchOp>* group_ops = &ops;
    if (groups[sh].size() != ops.size()) {
      sub_ops.clear();
      for (const size_t i : groups[sh]) {
        sub_ops.push_back(ops[i]);
      }
      group_ops = &sub_ops;
    }
    if (mutations[sh] == 0) {
      // Read-only group: nothing to log, so no shard lock.
      sub_results = inner_.ExecuteBatch(*group_ops);
      for (size_t j = 0; j < groups[sh].size(); ++j) {
        results[groups[sh][j]] = std::move(sub_results[j]);
      }
      continue;
    }
    Shard& s = shard(sh);
    std::unique_lock<std::mutex> lock(s.mutex);
    if (!s.failed.ok()) {
      // Durability can no longer be promised on this shard: fail its
      // mutations fast, but still serve its reads through the inner store.
      for (const size_t i : groups[sh]) {
        if (ops[i].type == kv::BatchOpType::kGet) {
          results[i] = kv::ExecuteSingleOp(inner_, ops[i]);
        } else {
          results[i].status = s.failed;
        }
      }
      continue;
    }
    uint64_t last_seq = 0;  // 0 = nothing appended, nothing to await
    sub_results = inner_.ExecuteBatch(*group_ops);
    // Append a record for every mutation that applied, in apply order,
    // under the SAME lock hold — acked ⇒ logged, batch-wide.
    Status append_failed;
    for (size_t j = 0; j < groups[sh].size(); ++j) {
      const size_t i = groups[sh][j];
      results[i] = std::move(sub_results[j]);
      const kv::BatchOp& op = ops[i];
      if (op.type == kv::BatchOpType::kGet || !results[i].status.ok()) {
        continue;  // nothing applied (or a read): nothing to log
      }
      if (!append_failed.ok()) {
        // An earlier record failed to append; this op DID apply but its
        // durability is unknowable, so it must not be acked.
        results[i].status = append_failed;
        continue;
      }
      // Log resulting state, not the computation (replay determinism).
      const bool is_delete = op.type == kv::BatchOpType::kDelete;
      const std::string_view logged =
          op.type == kv::BatchOpType::kSet ? std::string_view(op.value)
          : is_delete                      ? std::string_view()
                                           : std::string_view(results[i].value);
      uint64_t seq = 0;
      if (Status st = AppendLocked(s, is_delete, op.key, logged, &seq); !st.ok()) {
        append_failed = st;
        results[i].status = st;
        continue;
      }
      last_seq = seq;
    }
    if (last_seq != 0) {
      // One durability wait for the whole group: the last record's sequence
      // covers every earlier one (durable advances monotonically).
      if (Status st = AwaitDurable(s, lock, last_seq); !st.ok()) {
        for (const size_t i : groups[sh]) {
          if (ops[i].type != kv::BatchOpType::kGet && results[i].status.ok()) {
            results[i].status = st;
          }
        }
      }
    }
  }
  return results;
}

Status WriteAheadStore::CommitShardLocked(Shard& s, std::unique_lock<std::mutex>& lock) {
  if (s.log == nullptr) {
    return Status(Code::kInvalidArgument, "log not open");
  }
  s.cv.wait(lock, [&] { return !s.committing; });
  if (!s.failed.ok()) {
    return s.failed;
  }
  if (Status st = s.log->Commit(); !st.ok()) {
    s.failed = st;
    s.cv.notify_all();
    return st;
  }
  // A maintenance commit durable-izes records no leader will ever drain;
  // ship them under the lock (rare path: heal/compact/export windows).
  ShipLocked(s);
  s.durable = s.appended;
  s.cv.notify_all();
  return Status::Ok();
}

Status WriteAheadStore::WithCommittedShard(size_t shard_index,
                                           const std::function<Status()>& fn) {
  if (shard_index >= shards_.size()) {
    return Status(Code::kInvalidArgument, "no such shard");
  }
  Shard& s = shard(shard_index);
  std::unique_lock<std::mutex> lock(s.mutex);
  if (Status st = CommitShardLocked(s, lock); !st.ok()) {
    return st;
  }
  return fn();
}

Status WriteAheadStore::WithCommittedLog(const std::function<Status()>& fn) {
  // Lock every shard in index order (the one ordering everywhere, so no
  // deadlock) and commit each; `fn` then sees the whole store drained.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard_ptr : shards_) {
    locks.emplace_back(shard_ptr->mutex);
    if (Status st = CommitShardLocked(*shard_ptr, locks.back()); !st.ok()) {
      return st;
    }
  }
  return fn();
}

Status WriteAheadStore::CompactShard(size_t shard_index, const std::string& directory,
                                     CompactionCrash crash) {
  if (shard_index >= shards_.size()) {
    return Status(Code::kInvalidArgument, "no such shard");
  }
  Shard& s = shard(shard_index);
  std::unique_lock<std::mutex> lock(s.mutex);
  const size_t parts = inner_.num_partitions();
  for (size_t p = shard_index; p < parts; p += shards_.size()) {
    if (inner_.IsQuarantined(p)) {
      // The in-memory state is untrusted and the log suffix is exactly what
      // recovery will replay: leave both alone until the partition heals.
      return Status(Code::kPartitionRecovering,
                    "partition " + std::to_string(p) + " quarantined; compaction deferred");
    }
  }
  // 1. Commit: the log and the in-memory state now agree exactly.
  if (Status st = CommitShardLocked(s, lock); !st.ok()) {
    return st;
  }
  // 2. Fold each served partition into a fresh baseline. Crash anywhere
  // here: the log is untouched, so old-or-new baseline + full log replay
  // converge to the same state.
  if (inner_.persist_enabled()) {
    // Persist mode: the baseline is the arena, and the fold is an
    // INCREMENTAL checkpoint — dirty buckets + superblock, not a full
    // rewrite. The snapshot crash points have no analogue here (the arena
    // has its own plan/commit injection); kBeforeTruncate still applies.
    for (size_t p = shard_index; p < parts; p += shards_.size()) {
      if (Status st = inner_.CheckpointPartition(p, sealer_, counters_); !st.ok()) {
        return st;
      }
    }
  } else {
    Snapshotter::CrashPoint snap_crash = Snapshotter::CrashPoint::kNone;
    if (crash == CompactionCrash::kSnapshotTempWrite) {
      snap_crash = Snapshotter::CrashPoint::kAfterTempWrite;
    } else if (crash == CompactionCrash::kSnapshotRename) {
      snap_crash = Snapshotter::CrashPoint::kAfterRename;
    }
    for (size_t p = shard_index; p < parts; p += shards_.size()) {
      if (Status st = inner_.SnapshotPartition(p, sealer_, counters_, directory, snap_crash);
          !st.ok()) {
        return st;
      }
      snap_crash = Snapshotter::CrashPoint::kNone;  // injection is one-shot
    }
  }
  if (crash == CompactionCrash::kBeforeTruncate) {
    return Status(Code::kIoError, "injected crash before log truncate");
  }
  // 3. Truncate: the new generation subsumes everything the log held.
  compacted_bytes_->Inc(s.log->log_bytes());
  if (Status st = s.log->Reset(); !st.ok()) {
    s.failed = st;  // log state unknown: stop acking against this shard
    s.cv.notify_all();
    return st;
  }
  // appended/durable keep counting across the truncation: a follower woken
  // after this point still holds a sequence from before it, and must find it
  // durable (CommitShardLocked left durable == appended), not lead empty
  // commits until new appends catch up with it.
  s.ctr_compactions->Inc();
  compactions_->Inc();
  return Status::Ok();
}

Status WriteAheadStore::ResetAllLogs() {
  for (auto& shard_ptr : shards_) {
    Shard& s = *shard_ptr;
    std::unique_lock<std::mutex> lock(s.mutex);
    if (Status st = CommitShardLocked(s, lock); !st.ok()) {
      return st;
    }
    if (Status st = s.log->Reset(); !st.ok()) {
      s.failed = st;
      s.cv.notify_all();
      return st;
    }
  }
  // Stale shard files beyond the current count (a previous, wider geometry)
  // are subsumed by the caller's snapshot.
  for (size_t i = shards_.size();; ++i) {
    const std::string stale = options_.path + ".p" + std::to_string(i);
    if (std::remove(stale.c_str()) != 0) {
      break;
    }
  }
  return Status::Ok();
}

Status WriteAheadStore::Rebaseline(const std::string& directory, CompactionCrash crash) {
  // 1. Withdraw the sealed log set first: from here until step 4 seals the
  // new one, the logs may hold records routed under another key or geometry,
  // and a boot that finds no set does not continue them.
  if (std::remove((directory + "/" + kLogSetName).c_str()) != 0 && errno != ENOENT) {
    return Status(Code::kIoError, "cannot withdraw the sealed log set in " + directory);
  }
  FsyncDirectory(directory);
  // 2. A generation of every partition: the new baseline.
  if (Status st = inner_.SnapshotAll(sealer_, counters_, directory); !st.ok()) {
    return st;
  }
  if (crash == CompactionCrash::kBeforeTruncate) {
    return Status(Code::kIoError, "injected crash before log truncate");
  }
  // 3. The baseline subsumes everything the logs held: start every shard
  // fresh.
  if (Status st = ResetAllLogs(); !st.ok()) {
    return st;
  }
  // 4. Seal the routing the logs now follow, then the set itself.
  if (Status st = inner_.SaveRouteKey(sealer_, directory); !st.ok()) {
    return st;
  }
  LogSet set;
  set.route_tag = inner_.RouteKeyTag();
  set.partitions = inner_.num_partitions();
  for (const auto& shard_ptr : shards_) {
    set.counters.push_back(static_cast<uint32_t>(shard_ptr->log->counter_id()));
  }
  return WriteFileAtomic(directory, kLogSetName,
                         sealer_.Seal(EncodeLogSet(set), AsBytes(kLogSetAad)));
}

std::vector<OpLogOptions> WriteAheadStore::ShardLogs(size_t count) const {
  std::vector<OpLogOptions> logs(count, options_);
  for (size_t i = 0; i < count; ++i) {
    logs[i].path = options_.path + ".p" + std::to_string(i);
  }
  return logs;
}

size_t WriteAheadStore::ShardLogsOnDisk() const {
  // One past the highest-numbered shard log, so that a gap (a log removed
  // while no sealed set lists it) does not hide the logs after it.
  const std::filesystem::path log(options_.path);
  const std::string prefix = log.filename().string() + ".p";
  size_t count = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(
           log.has_parent_path() ? log.parent_path() : std::filesystem::path("."), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) {
      continue;
    }
    size_t index = 0;
    const char* last = name.data() + name.size();
    const auto [end, err] = std::from_chars(name.data() + prefix.size(), last, index);
    if (err == std::errc() && end == last) {  // not wal.log.p<i>.tmp
      count = std::max(count, index + 1);
    }
  }
  return count;
}

Status WriteAheadStore::RestoreFromDisk(const std::string& snapshot_directory) {
  const auto restore_start = std::chrono::steady_clock::now();
  logs_continued_ = false;
  std::optional<LogSet> sealed;
  if (inner_.persist_enabled()) {
    // Phase 1, persist mode: the sealed route key FIRST (the files' chain
    // placement was routed under it; the first boot seals this process's),
    // then attach the mmap'd heap files. Attach is O(1) in entry count
    // (superblock + sealed metadata, no entry decrypt); per-entry MACs
    // re-verify lazily on first touch.
    Status st = inner_.LoadRouteKey(sealer_, inner_.persist_dir());
    if (st.code() == Code::kNotFound) {
      st = inner_.SaveRouteKey(sealer_, inner_.persist_dir());
    }
    if (!st.ok()) {
      return st;
    }
    if (Status attached = inner_.AttachPersistent(sealer_, counters_); !attached.ok()) {
      return attached;
    }
  } else {
    // Phase 0: the route key and the log set the last rebaseline sealed. A
    // missing or unusable route key leaves this process's fresh one, which
    // no sealed set matches, so the boot rebaselines under it (restore
    // re-routes every key). A log set that does not unseal is tampering.
    if (Status st = inner_.LoadRouteKey(sealer_, snapshot_directory);
        !st.ok() && st.code() != Code::kNotFound) {
      SHIELD_LOG(Warning) << "route key in " << snapshot_directory
                          << " unusable, rebaselining under a fresh one: " << st.ToString();
    }
    Result<LogSet> set = ReadLogSet(sealer_, snapshot_directory);
    if (set.ok()) {
      sealed = std::move(set.value());
    } else if (set.status().code() != Code::kNotFound) {
      return set.status();
    }
    // Phase 1: every partition snapshot under the manifest's geometry,
    // applied through the facade; a sealed set vouches for all of them.
    if (Status st = inner_.RestoreSnapshots(sealer_, counters_, snapshot_directory,
                                            sealed ? sealed->partitions : 0);
        !st.ok()) {
      return st;
    }
  }
  // Phase 2: the committed suffix of every shard log, straight to the inner
  // store (not re-logged): exactly the logs a sealed set lists, else every
  // log on disk. Each partition's snapshot precedes its log records because
  // phase 1 ran first; logs never cross partitions, so any inter-log order
  // converges. Each replay also reports its log's committed tail, which
  // Open() uses instead of reading the log a second time.
  const std::vector<OpLogOptions> logs =
      ShardLogs(sealed ? sealed->counters.size() : ShardLogsOnDisk());
  std::vector<std::optional<LogTail>> tails(logs.size());
  const auto replay_one = [&](size_t i) {
    LogTail tail;
    const Status st = OperationLog::Replay(sealer_, counters_, logs[i], inner_, &tail);
    if (st.code() == Code::kNotFound) {
      // A missing or empty log: nothing was ever committed to it, unless a
      // sealed set lists it — every listed log committed its fresh epoch.
      return sealed ? Status(Code::kRollbackDetected, logs[i].path + " was removed or emptied")
                    : Status::Ok();
    }
    if (!st.ok()) {
      return Status(st.code(), "replaying " + logs[i].path + ": " + st.message());
    }
    if (sealed && tail.counter_id != static_cast<int32_t>(sealed->counters[i])) {
      return Status(Code::kRollbackDetected, logs[i].path + " is not the sealed shard log");
    }
    tails[i] = tail;
    return Status::Ok();
  };
  // Shard logs hold disjoint key sets — every record of a key went to its
  // partition's shard under one route key and geometry, whichever boot
  // wrote it — and cross-epoch leftovers converge (each log's last record
  // per key is that key's final state). So they can replay concurrently:
  // the facade's partition locks serialize same-key application, and
  // differently-keyed records commute.
  size_t threads =
      options_.replay_threads == 0
          ? std::min<size_t>(std::max<size_t>(std::thread::hardware_concurrency(), 1), 8)
          : options_.replay_threads;
  threads = std::min(std::max<size_t>(threads, 1), logs.size());
  std::atomic<size_t> next{0};
  std::mutex error_mutex;
  Status first_error;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= logs.size()) {
          return;
        }
        if (Status st = replay_one(i); !st.ok()) {
          std::lock_guard<std::mutex> guard(error_mutex);
          if (first_error.ok()) {
            first_error = st;
          }
        }
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  if (!first_error.ok()) {
    return first_error;
  }
  for (size_t i = 0; i < std::min(logs.size(), shards_.size()); ++i) {
    if (shards_[i]->log == nullptr) {  // an open log already sits at its tail
      shards_[i]->replayed = tails[i];
    }
  }
  // The logs continue (SelfHealer::Start() skips the rebaseline) only when
  // the last rebaseline completed under this boot's route key and geometry.
  logs_continued_ = sealed && sealed->route_tag == inner_.RouteKeyTag() &&
                    sealed->partitions == inner_.num_partitions() &&
                    sealed->counters.size() == shards_.size();
  // heap.restart_ns records the whole baseline-plus-tail restore (the number
  // the persistent heap exists to shrink); set only on success.
  metrics_->GetGauge("heap.restart_ns")
      .Set(std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - restore_start)
               .count());
  return Status::Ok();
}

uint64_t WriteAheadStore::ShardLogBytes(size_t shard_index) {
  if (shard_index >= shards_.size()) {
    return 0;
  }
  Shard& s = shard(shard_index);
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.log != nullptr ? s.log->log_bytes() : 0;
}

uint32_t WriteAheadStore::shard_window_us(size_t shard_index) const {
  if (shard_index >= shards_.size()) {
    return 0;
  }
  return shards_[shard_index]->window_us.load(std::memory_order_relaxed);
}

Status WriteAheadStore::ExportHeapFiles(const std::string& destination_dir) {
  if (!inner_.persist_enabled()) {
    return Status(Code::kUnsupported, "heap export requires --persist-heap");
  }
  // Checkpoint under the full log lock: no mutation lands between a
  // partition's checkpoint and its file copy, so every copied arena is a
  // committed generation whose sealed metadata verifies on the replica.
  return WithCommittedLog([&] {
    if (Status st = inner_.CheckpointAll(sealer_, counters_); !st.ok()) {
      return st;
    }
    std::error_code ec;
    std::filesystem::create_directories(destination_dir, ec);
    if (ec) {
      return Status(Code::kIoError, "cannot create " + destination_dir);
    }
    const std::string& src = inner_.persist_dir();
    std::vector<std::string> names;
    for (size_t p = 0; p < inner_.num_partitions(); ++p) {
      names.push_back("p" + std::to_string(p) + ".heap");
    }
    names.push_back("route.seal");
    for (const std::string& name : names) {
      std::filesystem::copy_file(src + "/" + name, destination_dir + "/" + name,
                                 std::filesystem::copy_options::overwrite_existing, ec);
      if (ec) {
        return Status(Code::kIoError, "cannot export " + name + ": " + ec.message());
      }
    }
    return Status::Ok();
  });
}

const OpLogOptions& WriteAheadStore::shard_log_options(size_t shard_index) const {
  return shards_[shard_index]->options;
}

SelfHealer::SelfHealer(WriteAheadStore& wal, const sgx::SealingService& sealer,
                       sgx::MonotonicCounterService& counters, SelfHealOptions options)
    : wal_(wal), sealer_(sealer), counters_(counters), options_(std::move(options)),
      attempts_(wal_.inner().num_partitions(), 0),
      ticks_(&wal_.metrics()->GetCounter("heal.ticks")),
      recoveries_(&wal_.metrics()->GetCounter("heal.recoveries")),
      failed_recoveries_(&wal_.metrics()->GetCounter("heal.failed_recoveries")),
      violations_detected_(&wal_.metrics()->GetCounter("heal.violations_detected")),
      compactions_(&wal_.metrics()->GetCounter("heal.compactions")) {}

Status SelfHealer::Restore() {
  return wal_.RestoreFromDisk(options_.directory);
}

Status SelfHealer::Start() {
  if (wal_.inner().persist_enabled()) {
    // Persist mode: the arenas are the baseline. Checkpoint them (first boot
    // binds each arena's monotonic counter; a restart folds the replayed
    // WAL tail in) and start the logs fresh — snapshots are never written.
    if (Status st = wal_.inner().CheckpointAll(sealer_, counters_); !st.ok()) {
      return st;
    }
    return wal_.ResetAllLogs();
  }
  if (wal_.logs_continued()) {
    // The sealed log set matched: the snapshots plus the committed logs are
    // this boot's baseline already; compaction folds the logs later, as in
    // steady state.
    return Status::Ok();
  }
  return wal_.Rebaseline(options_.directory);
}

Status SelfHealer::last_error() const {
  std::lock_guard<std::mutex> lock(error_mutex_);
  return last_error_;
}

Status SelfHealer::RecoverOne(size_t p) {
  // Commit, then replay inside the SHARD's lock: the replay's rollback check
  // compares the shard log's final commit against the live counter, so no
  // commit on this shard may land in between. Mutations to this shard's
  // partitions queue for the few milliseconds the replay takes; every other
  // shard — and all reads — keep serving.
  const size_t shard = wal_.ShardOfPartition(p);
  return wal_.WithCommittedShard(shard, [&] {
    if (wal_.inner().persist_enabled()) {
      // Persist mode has no snapshot to rebuild from — the arena IS the
      // state. Recovery is a full integrity scrub of the partition; clean
      // lifts the quarantine, tampered stays quarantined for a replica
      // restore (ExportHeapFiles on a healthy peer).
      return wal_.inner().RecoverPersistPartition(p);
    }
    return wal_.inner().RecoverPartition(p, sealer_, counters_, options_.directory,
                                         &wal_.shard_log_options(shard));
  });
}

bool SelfHealer::CompactOne() {
  if (options_.compact_log_bytes == 0) {
    return false;
  }
  const size_t shards = wal_.num_shards();
  for (size_t i = 0; i < shards; ++i) {
    const size_t s = (compact_cursor_.load(std::memory_order_relaxed) + i) % shards;
    if (wal_.ShardLogBytes(s) <= options_.compact_log_bytes) {
      continue;
    }
    compact_cursor_.store(s + 1, std::memory_order_relaxed);
    const Status st = wal_.CompactShard(s, options_.directory);
    if (st.ok()) {
      compactions_->Inc();
    } else if (st.code() != Code::kPartitionRecovering) {
      // Deferred-behind-recovery is expected; anything else is operator news.
      std::lock_guard<std::mutex> lock(error_mutex_);
      last_error_ = st;
    }
    return true;  // one unit of maintenance work per tick
  }
  return false;
}

void SelfHealer::Tick() {
  ticks_->Inc();
  PartitionedStore& store = wal_.inner();
  for (size_t p = 0; p < store.num_partitions(); ++p) {
    if (!store.IsQuarantined(p)) {
      attempts_[p] = 0;
      continue;
    }
    if (attempts_[p] >= options_.max_recovery_attempts) {
      continue;  // gave up on this partition; operator intervention needed
    }
    const Status s = RecoverOne(p);
    if (s.ok()) {
      recoveries_->Inc();
      attempts_[p] = 0;
      char detail[64];
      std::snprintf(detail, sizeof(detail), "partition %zu recovered and re-admitted", p);
      obs::AuditEvent(obs::AuditType::kRecovery, detail);
      SHIELD_LOG(Info) << "partition " << p << " recovered and re-admitted";
    } else {
      failed_recoveries_->Inc();
      ++attempts_[p];
      std::lock_guard<std::mutex> lock(error_mutex_);
      last_error_ = s;
    }
    return;  // one recovery attempt per tick keeps the pacing predictable
  }
  if (CompactOne()) {
    return;
  }
  if (options_.scrub) {
    const Status s = store.ScrubTick(options_.scrub_budget_buckets);
    if (!s.ok()) {
      violations_detected_->Inc();
      obs::AuditEvent(obs::AuditType::kScrubFinding, s.message());
      std::lock_guard<std::mutex> lock(error_mutex_);
      last_error_ = s;
    }
  }
}

}  // namespace shield::shieldstore
