// Sharded write-ahead log: shard routing, durable group-commit acks,
// bounded-log compaction (including its injected-crash matrix), stats,
// route- and geometry-agnostic restore, and restarts that continue the
// committed logs.
//
// Restart simulation: build a SECOND stack over the same directory (same
// counter backing file, a differently seeded enclave) and RestoreFromDisk,
// as the daemon does at boot; Boot() runs the daemon's whole boot order.
// Acked-write checks always go through that restored copy, never the live
// store's memory.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/faultinject/tamper.h"
#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"
#include "src/shieldstore/partitioned.h"
#include "src/shieldstore/selfheal.h"

namespace shield {
namespace {

using shieldstore::OperationLog;
using shieldstore::OpLogOptions;
using shieldstore::PartitionedStore;
using shieldstore::SelfHealer;
using shieldstore::SelfHealOptions;
using shieldstore::WriteAheadStore;

sgx::EnclaveConfig TestEnclaveConfig(const char* seed) {
  sgx::EnclaveConfig c;
  c.name = "wal-sharding-test";
  c.epc.epc_bytes = 8u << 20;
  c.epc.crossing_cycles = 0;
  c.epc.kernel_fault_cycles = 0;
  c.epc.resident_access_cycles = 0;
  c.epc.page_crypto = false;
  c.heap_reserve_bytes = 128u << 20;
  c.rng_seed = ToBytes(seed);
  return c;
}

shieldstore::Options SmallOptions() {
  shieldstore::Options o;
  o.num_buckets = 512;
  o.heap_chunk_bytes = 1 << 20;
  return o;
}

class WalShardingTest : public ::testing::Test {
 protected:
  WalShardingTest() : enclave_(TestEnclaveConfig("wal-sharding-a")) {
    // Keyed by pid AND fixture address: ctest runs each case of this binary
    // as its own process, and two processes can land `this` on the same
    // heap address.
    dir_ = ::testing::TempDir() + "/wal_sharding_" + std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    sgx::MonotonicCounterService::Options counter_opts;
    counter_opts.backing_file = dir_ + "/counters.bin";
    counter_opts.increment_cost_cycles = 0;
    counters_ = std::make_unique<sgx::MonotonicCounterService>(counter_opts);
    sealer_ = std::make_unique<sgx::SealingService>(AsBytes("fuse"), enclave_.measurement());
  }
  ~WalShardingTest() override { std::filesystem::remove_all(dir_); }

  OpLogOptions LogOptions() const {
    OpLogOptions o;
    o.path = dir_ + "/wal.log";
    return o;
  }
  std::string SnapshotDir() const { return dir_ + "/snapshots"; }

  // Every key/value the store holds, read partition by partition.
  static std::map<std::string, std::string> Dump(PartitionedStore& store) {
    std::map<std::string, std::string> dump;
    for (size_t p = 0; p < store.num_partitions(); ++p) {
      const Status walk = store.partition(p).ForEachDecrypted(
          [&](std::string_view key, std::string_view value) {
            dump[std::string(key)] = std::string(value);
            return Status::Ok();
          });
      EXPECT_TRUE(walk.ok()) << walk.ToString();
    }
    return dump;
  }

  // Boots a fresh stack over this test's directory (a different enclave, so
  // a different route key — restore must be route-agnostic) and restores the
  // durable state, as the daemon does after a crash.
  std::map<std::string, std::string> RestartAndDump(size_t partitions,
                                                    const OpLogOptions& log_opts) {
    sgx::Enclave enclave2(TestEnclaveConfig("wal-sharding-b"));
    PartitionedStore store2(enclave2, SmallOptions(), partitions);
    WriteAheadStore wal2(store2, *sealer_, *counters_, log_opts);
    EXPECT_TRUE(wal2.Open().ok());
    const Status restored = wal2.RestoreFromDisk(SnapshotDir());
    EXPECT_TRUE(restored.ok()) << restored.ToString();
    return Dump(store2);
  }

  // One process lifetime over this test's directory, booted in the daemon's
  // order: RestoreFromDisk, Open, SelfHealer::Start. Destroying it is the
  // kill: every acked write is already fsync'd.
  struct Stack {
    std::unique_ptr<sgx::Enclave> enclave;
    std::unique_ptr<PartitionedStore> store;
    std::unique_ptr<WriteAheadStore> wal;
    std::unique_ptr<SelfHealer> healer;
    Status booted;
  };
  // `seed` seeds the enclave that draws this process's route key, so a boot
  // that ignored the sealed key would route keys differently than the last.
  // Replay is sequential: the order in which logs apply is deterministic.
  // A `rebaseline_crash` runs the rebaseline with that crash point in place
  // of SelfHealer::Start().
  Stack Boot(const std::string& seed, size_t partitions, size_t wal_shards = 0,
             WriteAheadStore::CompactionCrash rebaseline_crash =
                 WriteAheadStore::CompactionCrash::kNone) {
    Stack s;
    s.enclave = std::make_unique<sgx::Enclave>(TestEnclaveConfig(seed.c_str()));
    s.store = std::make_unique<PartitionedStore>(*s.enclave, SmallOptions(), partitions);
    OpLogOptions log_opts = LogOptions();
    log_opts.num_shards = wal_shards;
    log_opts.replay_threads = 1;
    s.wal = std::make_unique<WriteAheadStore>(*s.store, *sealer_, *counters_, log_opts);
    SelfHealOptions heal_opts;
    heal_opts.directory = SnapshotDir();
    heal_opts.scrub = false;
    s.healer = std::make_unique<SelfHealer>(*s.wal, *sealer_, *counters_, heal_opts);
    s.booted = s.healer->Restore();
    if (s.booted.ok()) {
      s.booted = s.wal->Open();
    }
    if (s.booted.ok()) {
      s.booted = rebaseline_crash == WriteAheadStore::CompactionCrash::kNone
                     ? s.healer->Start()
                     : s.wal->Rebaseline(SnapshotDir(), rebaseline_crash);
    }
    return s;
  }

  // Overwrites keys k0..k63 with `tag` values, deleting every seventh key
  // that `acked` holds; `acked` follows every ack.
  static void OverwriteAndDelete(WriteAheadStore& wal, const std::string& tag,
                                 std::map<std::string, std::string>& acked) {
    for (int i = 0; i < 64; ++i) {
      const std::string key = "k" + std::to_string(i);
      if (i % 7 == 3 && acked.count(key) != 0) {
        ASSERT_TRUE(wal.Delete(key).ok());
        acked.erase(key);
        continue;
      }
      ASSERT_TRUE(wal.Set(key, tag + "-" + std::to_string(i)).ok());
      acked[key] = tag + "-" + std::to_string(i);
    }
  }

  sgx::Enclave enclave_;
  std::string dir_;
  std::unique_ptr<sgx::MonotonicCounterService> counters_;
  std::unique_ptr<sgx::SealingService> sealer_;
};

TEST_F(WalShardingTest, OneShardPerPartitionRoutesWritesToOwningShardLog) {
  PartitionedStore store(enclave_, SmallOptions(), 4);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_EQ(wal.num_shards(), 4u);
  for (size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(wal.ShardOfPartition(p), p);
  }

  // Writing one key must grow exactly its partition's shard log.
  const std::string key = "routed-key";
  const size_t shard = wal.ShardOfPartition(store.PartitionOf(key));
  std::vector<uint64_t> before(4);
  for (size_t s = 0; s < 4; ++s) {
    before[s] = wal.ShardLogBytes(s);
  }
  ASSERT_TRUE(wal.Set(key, "v").ok());
  for (size_t s = 0; s < 4; ++s) {
    if (s == shard) {
      EXPECT_GT(wal.ShardLogBytes(s), before[s]);
    } else {
      EXPECT_EQ(wal.ShardLogBytes(s), before[s]);
    }
  }
  // Each shard has its own file on disk.
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(std::filesystem::exists(dir_ + "/wal.log.p" + std::to_string(s)));
  }
}

TEST_F(WalShardingTest, ShardCountClampsToPartitionsAndGroupsByModulo) {
  PartitionedStore store(enclave_, SmallOptions(), 4);
  OpLogOptions log_opts = LogOptions();
  log_opts.num_shards = 3;
  WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(wal.Open().ok());
  EXPECT_EQ(wal.num_shards(), 3u);
  for (size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(wal.ShardOfPartition(p), p % 3);
  }

  OpLogOptions oversized = LogOptions();
  oversized.num_shards = 64;  // more shards than partitions is pointless
  WriteAheadStore clamped(store, *sealer_, *counters_, oversized);
  ASSERT_TRUE(clamped.Open().ok());
  EXPECT_EQ(clamped.num_shards(), 4u);
}

TEST_F(WalShardingTest, DurableWindowAcksSurviveRestart) {
  // An ack means fsync'd at every window, 0 included: the state on disk
  // right after the last ack must replay in full, no explicit commit
  // required.
  for (const uint32_t window_us : {0u, 50u}) {
    SCOPED_TRACE("group_commit_window_us=" + std::to_string(window_us));
    PartitionedStore store(enclave_, SmallOptions(), 4);
    OpLogOptions log_opts = LogOptions();
    log_opts.path = dir_ + "/wal-w" + std::to_string(window_us) + ".log";
    log_opts.group_commit_window_us = window_us;
    log_opts.group_commit_ops = 4;
    WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
    ASSERT_TRUE(wal.Open().ok());

    std::map<std::string, std::string> acked;
    for (int i = 0; i < 40; ++i) {
      const std::string key = "durable-" + std::to_string(i);
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(wal.Set(key, value).ok());
      acked[key] = value;
    }
    ASSERT_TRUE(wal.Delete("durable-0").ok());
    acked.erase("durable-0");

    const std::map<std::string, std::string> dump = RestartAndDump(4, log_opts);
    EXPECT_EQ(dump, acked);
  }
}

TEST_F(WalShardingTest, CompactionBoundsLogGrowthWithZeroAckedLoss) {
  PartitionedStore store(enclave_, SmallOptions(), 4);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());

  constexpr size_t kThreshold = 4096;
  SelfHealOptions heal_opts;
  heal_opts.directory = SnapshotDir();
  heal_opts.scrub = false;
  heal_opts.compact_log_bytes = kThreshold;
  SelfHealer healer(wal, *sealer_, *counters_, heal_opts);
  ASSERT_TRUE(healer.Start().ok());

  // Write >= 10x the threshold into every shard, ticking the maintenance
  // loop as a server would. Each shard's log must stay bounded: it can
  // overshoot by at most the bytes written between two of its compaction
  // turns (num_shards ticks apart), not grow with total traffic.
  std::map<std::string, std::string> acked;
  const std::string value(128, 'x');
  uint64_t written_bytes = 0;
  int i = 0;
  while (written_bytes < 10 * kThreshold * wal.num_shards()) {
    const std::string key = "compact-" + std::to_string(i % 512);
    ASSERT_TRUE(wal.Set(key, value).ok());
    acked[key] = value;
    written_bytes += key.size() + value.size();
    if (++i % 8 == 0) {
      healer.Tick();
    }
  }
  for (size_t t = 0; t < wal.num_shards(); ++t) {
    healer.Tick();  // let every shard take a final compaction turn
  }
  EXPECT_GE(healer.compactions(), wal.num_shards());
  // Bound: threshold + one inter-tick burst of records (8 per tick, times
  // the round-robin period) with framing slack.
  const uint64_t burst = 8 * wal.num_shards() * (value.size() + 64);
  for (size_t s = 0; s < wal.num_shards(); ++s) {
    EXPECT_LT(wal.ShardLogBytes(s), kThreshold + burst) << "shard " << s;
  }

  const std::map<std::string, std::string> dump = RestartAndDump(4, LogOptions());
  EXPECT_EQ(dump, acked);
}

class WalCompactionCrashTest
    : public WalShardingTest,
      public ::testing::WithParamInterface<WriteAheadStore::CompactionCrash> {};

TEST_P(WalCompactionCrashTest, CrashMidCompactionLosesNoAckedWrite) {
  PartitionedStore store(enclave_, SmallOptions(), 4);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  SelfHealOptions heal_opts;
  heal_opts.directory = SnapshotDir();
  heal_opts.scrub = false;
  SelfHealer healer(wal, *sealer_, *counters_, heal_opts);
  ASSERT_TRUE(healer.Start().ok());

  std::map<std::string, std::string> acked;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "crash-" + std::to_string(i);
    const std::string value = "gen1-" + std::to_string(i);
    ASSERT_TRUE(wal.Set(key, value).ok());
    acked[key] = value;
  }

  // The injected crash aborts the compaction sequence at the parameterized
  // point; every shard either kept its old snapshot + full log or has the
  // new snapshot + (not yet truncated) log — both replay to `acked`.
  for (size_t s = 0; s < wal.num_shards(); ++s) {
    const Status crashed = wal.CompactShard(s, SnapshotDir(), GetParam());
    ASSERT_FALSE(crashed.ok()) << "injected crash must surface, shard " << s;
    EXPECT_GT(wal.ShardLogBytes(s), 8u) << "log must NOT be truncated after the crash";
  }

  const std::map<std::string, std::string> dump = RestartAndDump(4, LogOptions());
  EXPECT_EQ(dump, acked);

  // The surviving store compacts cleanly afterwards (the daemon that
  // restarts after the crash retries on its maintenance thread).
  for (size_t s = 0; s < wal.num_shards(); ++s) {
    const Status retried = wal.CompactShard(s, SnapshotDir());
    ASSERT_TRUE(retried.ok()) << retried.ToString();
    EXPECT_LE(wal.ShardLogBytes(s), 8u + 512u);  // header + epoch-bind commit record
  }
  EXPECT_EQ(RestartAndDump(4, LogOptions()), acked);
}

INSTANTIATE_TEST_SUITE_P(
    AllCrashPoints, WalCompactionCrashTest,
    ::testing::Values(WriteAheadStore::CompactionCrash::kSnapshotTempWrite,
                      WriteAheadStore::CompactionCrash::kSnapshotRename,
                      WriteAheadStore::CompactionCrash::kBeforeTruncate),
    [](const auto& param_info) {
      switch (param_info.param) {
        case WriteAheadStore::CompactionCrash::kSnapshotTempWrite:
          return "AfterSnapshotTempWrite";
        case WriteAheadStore::CompactionCrash::kSnapshotRename:
          return "AfterSnapshotRename";
        default:
          return "BeforeLogTruncate";
      }
    });

TEST_F(WalShardingTest, CompactionRefusesQuarantinedPartition) {
  PartitionedStore store(enclave_, SmallOptions(), 2);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  SelfHealOptions heal_opts;
  heal_opts.directory = SnapshotDir();
  heal_opts.scrub = false;
  SelfHealer healer(wal, *sealer_, *counters_, heal_opts);
  ASSERT_TRUE(healer.Start().ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(wal.Set("q-" + std::to_string(i), "v").ok());
  }
  // Quarantine partition 0 by feeding the facade's outcome tracker a
  // violation, as a detecting op would.
  ASSERT_FALSE(store
                   .WithPartitionLocked(
                       0, [](shieldstore::Store&) {
                         return Status(Code::kIntegrityFailure, "synthetic violation");
                       })
                   .ok());
  ASSERT_TRUE(store.IsQuarantined(0));
  const Status refused = wal.CompactShard(wal.ShardOfPartition(0), SnapshotDir());
  EXPECT_EQ(refused.code(), Code::kPartitionRecovering) << refused.ToString();
}

TEST_F(WalShardingTest, StatsCountersTrackLoggingCommitsAndCompactions) {
  obs::Registry registry;
  PartitionedStore store(enclave_, SmallOptions(), 4);
  OpLogOptions log_opts = LogOptions();
  log_opts.group_commit_ops = 8;
  log_opts.metrics = &registry;
  WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(wal.Open().ok());
  SelfHealOptions heal_opts;
  heal_opts.directory = SnapshotDir();
  heal_opts.scrub = false;
  SelfHealer healer(wal, *sealer_, *counters_, heal_opts);
  ASSERT_TRUE(healer.Start().ok());

  const obs::MetricsSnapshot before = registry.Snapshot();
  EXPECT_EQ(before.GaugeValue("wal.shards"), 4);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(wal.Set("stats-" + std::to_string(i), "v").ok());
  }
  obs::MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(after.CounterValue("wal.records") - before.CounterValue("wal.records"), 100u);
  // Every ack waited for a group commit.
  EXPECT_GT(after.CounterValue("wal.commits"), before.CounterValue("wal.commits"));
  EXPECT_GT(after.GaugeValue("wal.log_bytes"), before.GaugeValue("wal.log_bytes"));

  ASSERT_TRUE(wal.WithCommittedLog([] { return Status::Ok(); }).ok());
  after = registry.Snapshot();
  EXPECT_GE(after.CounterValue("wal.fsyncs"), wal.num_shards());  // every shard group-committed

  for (size_t s = 0; s < wal.num_shards(); ++s) {
    ASSERT_TRUE(wal.CompactShard(s, SnapshotDir()).ok());
  }
  const obs::MetricsSnapshot compacted = registry.Snapshot();
  EXPECT_EQ(compacted.CounterValue("wal.compactions") - before.CounterValue("wal.compactions"),
            wal.num_shards());
  // Logs truncated.
  EXPECT_LT(compacted.GaugeValue("wal.log_bytes"), after.GaugeValue("wal.log_bytes"));
}

TEST_F(WalShardingTest, ParallelReplayMatchesSequentialReplay) {
  // Populate via the sharded WAL, quiesce, then restore twice from the same
  // directory: once sequentially and once on the replay thread pool. Both
  // must reconstruct exactly the acked map — shard logs hold disjoint keys,
  // so their replay order cannot matter.
  PartitionedStore store(enclave_, SmallOptions(), 4);
  WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
  ASSERT_TRUE(wal.Open().ok());
  std::map<std::string, std::string> acked;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "par-" + std::to_string(i % 64);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(wal.Set(key, value).ok());
    acked[key] = value;
  }
  for (int i = 0; i < 10; ++i) {
    const std::string key = "par-" + std::to_string(i);
    ASSERT_TRUE(wal.Delete(key).ok());
    acked.erase(key);
  }
  ASSERT_TRUE(wal.WithCommittedLog([] { return Status::Ok(); }).ok());

  OpLogOptions sequential = LogOptions();
  sequential.replay_threads = 1;
  OpLogOptions parallel = LogOptions();
  parallel.replay_threads = 4;
  EXPECT_EQ(RestartAndDump(4, sequential), acked);
  EXPECT_EQ(RestartAndDump(4, parallel), acked);
}

TEST_F(WalShardingTest, RestoreIsRouteAndGeometryAgnostic) {
  // Snapshot under 4 partitions, restore into a 2-partition store whose
  // route key differs: every key must re-route, re-encrypt, and read back.
  std::map<std::string, std::string> acked;
  {
    PartitionedStore store(enclave_, SmallOptions(), 4);
    WriteAheadStore wal(store, *sealer_, *counters_, LogOptions());
    ASSERT_TRUE(wal.Open().ok());
    SelfHealOptions heal_opts;
    heal_opts.directory = SnapshotDir();
    heal_opts.scrub = false;
    SelfHealer healer(wal, *sealer_, *counters_, heal_opts);
    ASSERT_TRUE(healer.Start().ok());
    for (int i = 0; i < 40; ++i) {
      const std::string key = "geo-" + std::to_string(i);
      ASSERT_TRUE(wal.Set(key, "v" + std::to_string(i)).ok());
      acked[key] = "v" + std::to_string(i);
    }
    for (size_t s = 0; s < wal.num_shards(); ++s) {
      ASSERT_TRUE(wal.CompactShard(s, SnapshotDir()).ok());  // state → snapshots
    }
  }
  EXPECT_EQ(RestartAndDump(2, LogOptions()), acked);

  // Daemon-ordered boots over the same directory. Every boot whose logs
  // cannot take its records in per-key order rebaselines (snapshot + fresh
  // logs) and keeps every acked write: a partition-count change, a shard-
  // count change, and a missing or unusable sealed route key.
  const std::string route_seal = SnapshotDir() + "/route.seal";
  struct Step {
    const char* what;
    size_t partitions;
    size_t wal_shards;
    bool continued;
  };
  const Step steps[] = {
      {"4 -> 2 partitions", 2, 0, false},  {"restart", 2, 0, true},
      {"2 -> 1 WAL shards", 2, 1, false},  {"2 -> 3 partitions", 3, 1, false},
      {"route.seal missing", 3, 1, false}, {"route.seal corrupt", 3, 1, false},
      {"restart", 3, 1, true},
  };
  int boot = 0;
  for (const Step& step : steps) {
    SCOPED_TRACE(step.what);
    if (std::string(step.what) == "route.seal missing") {
      ASSERT_TRUE(std::filesystem::remove(route_seal));
    } else if (std::string(step.what) == "route.seal corrupt") {
      FILE* f = std::fopen(route_seal.c_str(), "rb+");
      ASSERT_NE(f, nullptr);
      std::fseek(f, 30, SEEK_SET);
      const int c = std::fgetc(f);
      std::fseek(f, 30, SEEK_SET);
      std::fputc(c ^ 0x01, f);
      std::fclose(f);
    }
    Stack s = Boot("geometry-boot-" + std::to_string(boot++), step.partitions, step.wal_shards);
    ASSERT_TRUE(s.booted.ok()) << s.booted.ToString();
    EXPECT_EQ(s.wal->logs_continued(), step.continued);
    EXPECT_EQ(Dump(*s.store), acked);
    if (!step.continued) {
      for (size_t sh = 0; sh < s.wal->num_shards(); ++sh) {
        EXPECT_LE(s.wal->ShardLogBytes(sh), 8u + 512u) << "rebaseline resets shard " << sh;
      }
      EXPECT_FALSE(std::filesystem::exists(LogOptions().path + ".p" +
                                           std::to_string(s.wal->num_shards())))
          << "shard files beyond the current count are subsumed";
    }
    for (int i = 0; i < 12; ++i) {
      const std::string key = "geo-" + std::to_string((boot * 7 + i) % 50);
      const std::string value = "boot" + std::to_string(boot) + "-" + std::to_string(i);
      ASSERT_TRUE(s.wal->Set(key, value).ok());
      acked[key] = value;
    }
    const std::string doomed = "geo-" + std::to_string(boot * 3 % 50);
    if (acked.count(doomed) != 0) {
      ASSERT_TRUE(s.wal->Delete(doomed).ok());
      acked.erase(doomed);
    }
  }
  Stack last = Boot("geometry-boot-final", 3, 1);
  ASSERT_TRUE(last.booted.ok()) << last.booted.ToString();
  EXPECT_TRUE(last.wal->logs_continued());
  EXPECT_EQ(Dump(*last.store), acked);
}

// Three boots with overwrites and deletes between them: the second and
// third continue the first boot's logs, and every acked value and delete
// survives. Records of one key from different boots must land in the same
// shard log (one sealed route key), or the sequential replay below would
// apply a newer shard-0 record before an older shard-1 one.
TEST_F(WalShardingTest, RestartsContinueLogsAndKeepEveryAckedWriteAndDelete) {
  std::map<std::string, std::string> acked;
  for (int boot = 0; boot < 3; ++boot) {
    SCOPED_TRACE("boot " + std::to_string(boot));
    Stack s = Boot("three-boots-" + std::to_string(boot), 2);
    ASSERT_TRUE(s.booted.ok()) << s.booted.ToString();
    EXPECT_EQ(s.wal->logs_continued(), boot > 0) << "only the first boot rebaselines";
    EXPECT_EQ(Dump(*s.store), acked);
    for (int i = 0; i < 64; ++i) {
      const std::string key = "k" + std::to_string(i);
      if (boot > 0 && i % 5 == boot) {
        ASSERT_TRUE(s.wal->Delete(key).ok());
        acked.erase(key);
        continue;
      }
      const std::string value = "boot" + std::to_string(boot) + "-" + std::to_string(i);
      ASSERT_TRUE(s.wal->Set(key, value).ok());
      acked[key] = value;
    }
  }
  Stack last = Boot("three-boots-final", 2);
  ASSERT_TRUE(last.booted.ok()) << last.booted.ToString();
  EXPECT_EQ(Dump(*last.store), acked);
}

// A crash can leave records past a shard log's last commit: whole frames
// that were never committed, then a torn frame. The next boot must cut the
// log back to that commit before appending, or its records would follow
// bytes that the replay either cannot authenticate past or would adopt
// under the next commit.
TEST_F(WalShardingTest, RestartCutsTornAndUncommittedTailsBeforeAppending) {
  std::map<std::string, std::string> acked;
  {
    Stack s = Boot("tails-0", 2);
    ASSERT_TRUE(s.booted.ok()) << s.booted.ToString();
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(s.wal->Set("k" + std::to_string(i), "v" + std::to_string(i)).ok());
      acked["k" + std::to_string(i)] = "v" + std::to_string(i);
    }
  }
  // Shard 0: three uncommitted records, then a torn frame. Written through
  // a standalone log whose commit record is cut off again, so the counter
  // never learns of it: exactly a crash between append and commit.
  const std::string shard0 = LogOptions().path + ".p0";
  const std::string shard1 = LogOptions().path + ".p1";
  const uint64_t committed0 = std::filesystem::file_size(shard0);
  const uint64_t committed1 = std::filesystem::file_size(shard1);
  {
    OpLogOptions raw = LogOptions();
    raw.path = shard0;
    OperationLog log(*sealer_, *counters_, raw);
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(log.AppendSet("ghost-" + std::to_string(i), std::string(300, 'g')).ok());
    }
    const uint64_t uncommitted_end = log.log_bytes();
    ASSERT_TRUE(log.CommitPrepare().ok());  // flushes the records; no counter bump
    std::filesystem::resize_file(shard0, uncommitted_end);
  }
  const auto append_torn_frame = [](const std::string& path) {
    FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint8_t torn[] = {200, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    std::fwrite(torn, 1, sizeof(torn), f);
    std::fclose(f);
  };
  append_torn_frame(shard0);
  append_torn_frame(shard1);
  ASSERT_GT(std::filesystem::file_size(shard0), committed0 + 900);

  for (int boot = 1; boot <= 2; ++boot) {
    SCOPED_TRACE("boot " + std::to_string(boot));
    Stack s = Boot("tails-" + std::to_string(boot), 2);
    ASSERT_TRUE(s.booted.ok()) << s.booted.ToString();
    EXPECT_TRUE(s.wal->logs_continued());
    EXPECT_EQ(Dump(*s.store), acked) << "no uncommitted record may ever apply";
    if (boot == 1) {
      EXPECT_EQ(s.wal->ShardLogBytes(0), committed0) << "cut back to the last commit";
      EXPECT_EQ(s.wal->ShardLogBytes(1), committed1) << "cut back to the last commit";
      EXPECT_EQ(std::filesystem::file_size(shard0), committed0);
    }
    for (int i = 0; i < 32; i += 2) {
      const std::string key = "k" + std::to_string(i);
      const std::string value = "boot" + std::to_string(boot) + "-" + std::to_string(i);
      ASSERT_TRUE(s.wal->Set(key, value).ok());
      acked[key] = value;
    }
    if (boot == 1) {
      ASSERT_TRUE(s.wal->Delete("k1").ok());
      acked.erase("k1");
    }
  }
  Stack last = Boot("tails-final", 2);
  ASSERT_TRUE(last.booted.ok()) << last.booted.ToString();
  EXPECT_EQ(Dump(*last.store), acked);
}

// Self-heal after a restart that continued the logs: the partition rebuilds
// from its generation (written by the first boot) plus the shard log that
// now spans both boots.
TEST_F(WalShardingTest, TamperAfterContinuedRestartHealsWithNoAckedLoss) {
  std::map<std::string, std::string> acked;
  {
    Stack s = Boot("heal-0", 2);
    ASSERT_TRUE(s.booted.ok()) << s.booted.ToString();
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(s.wal->Set("k" + std::to_string(i), "first").ok());
      acked["k" + std::to_string(i)] = "first";
    }
  }
  Stack s = Boot("heal-1", 2);
  ASSERT_TRUE(s.booted.ok()) << s.booted.ToString();
  ASSERT_TRUE(s.wal->logs_continued());
  for (int i = 0; i < 40; i += 3) {
    ASSERT_TRUE(s.wal->Set("k" + std::to_string(i), "second").ok());
    acked["k" + std::to_string(i)] = "second";
  }
  ASSERT_TRUE(s.wal->Delete("k1").ok());
  acked.erase("k1");

  faultinject::TamperAgent agent(7);
  ASSERT_TRUE(agent.TamperPartition(*s.store, 0, faultinject::TamperMode::kBitFlipCiphertext)
                  .ok());
  EXPECT_FALSE(s.store->ScrubAll().ok());
  ASSERT_TRUE(s.store->IsQuarantined(0));
  s.healer->Tick();
  ASSERT_FALSE(s.store->IsQuarantined(0)) << s.healer->last_error().ToString();
  EXPECT_EQ(s.healer->recoveries(), 1u);
  for (const auto& [key, value] : acked) {
    const Result<std::string> got = s.wal->Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), value) << key;
  }
  EXPECT_EQ(s.wal->Get("k1").status().code(), Code::kNotFound);
}

// A continued log is still rollback-protected: putting back a shard log's
// copy from before the restart fails the next boot.
TEST_F(WalShardingTest, SwappedInPreRestartShardLogFailsBootWithRollback) {
  const std::string shard0 = LogOptions().path + ".p0";
  {
    Stack s = Boot("swap-0", 2);
    ASSERT_TRUE(s.booted.ok()) << s.booted.ToString();
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(s.wal->Set("k" + std::to_string(i), "first").ok());
    }
  }
  std::filesystem::copy_file(shard0, dir_ + "/stale.p0");
  {
    Stack s = Boot("swap-1", 2);
    ASSERT_TRUE(s.booted.ok()) << s.booted.ToString();
    ASSERT_TRUE(s.wal->logs_continued());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(s.wal->Set("k" + std::to_string(i), "second").ok());
    }
    ASSERT_GT(s.wal->ShardLogBytes(0), std::filesystem::file_size(dir_ + "/stale.p0"));
  }
  std::filesystem::copy_file(dir_ + "/stale.p0", shard0,
                             std::filesystem::copy_options::overwrite_existing);
  Stack s = Boot("swap-2", 2);
  EXPECT_EQ(s.booted.code(), Code::kRollbackDetected) << s.booted.ToString();
}

// A crash inside a rebaseline, after the new baseline's manifest and
// generations but before the shard logs restart, leaves logs whose records
// follow the old geometry. Here 4 partitions over 2 shards shrink to 2: keys
// of old partition 1 (shard 1) move to partition 0 (shard 0). A boot that
// continued those logs would put a key's new records in shard 0 after its
// old ones in shard 1, and the ordered replay of the last boot would bring
// back overwritten values and deleted keys. A boot back in the old geometry
// after such a crash must not trust the old sealed log set either: the
// manifest it vouched for is gone.
TEST_F(WalShardingTest, CrashMidRebaselineNeverContinuesTheLogs) {
  std::map<std::string, std::string> acked;
  const auto crash_shrinking_to_two = [&](const std::string& seed) {
    Stack s = Boot(seed, 2, 2, WriteAheadStore::CompactionCrash::kBeforeTruncate);
    ASSERT_EQ(s.booted.code(), Code::kIoError) << s.booted.ToString();
  };
  {
    Stack s = Boot("mid-rebaseline-0", 4, 2);
    ASSERT_TRUE(s.booted.ok()) << s.booted.ToString();
    OverwriteAndDelete(*s.wal, "boot0", acked);
  }
  crash_shrinking_to_two("mid-rebaseline-1");
  {
    Stack s = Boot("mid-rebaseline-2", 4, 2);
    ASSERT_TRUE(s.booted.ok()) << s.booted.ToString();
    EXPECT_FALSE(s.wal->logs_continued()) << "an unfinished rebaseline must be redone";
    EXPECT_EQ(Dump(*s.store), acked);
    OverwriteAndDelete(*s.wal, "boot2", acked);
  }
  crash_shrinking_to_two("mid-rebaseline-3");
  {
    Stack s = Boot("mid-rebaseline-4", 2, 2);
    ASSERT_TRUE(s.booted.ok()) << s.booted.ToString();
    EXPECT_FALSE(s.wal->logs_continued()) << "an unfinished rebaseline must be redone";
    EXPECT_EQ(Dump(*s.store), acked);
    OverwriteAndDelete(*s.wal, "boot4", acked);
  }
  Stack last = Boot("mid-rebaseline-5", 2, 2);
  ASSERT_TRUE(last.booted.ok()) << last.booted.ToString();
  EXPECT_TRUE(last.wal->logs_continued());
  EXPECT_EQ(Dump(*last.store), acked);
}

// A boot that found no usable route key draws a fresh one and rebaselines.
// Even if that key became durable and the boot then crashed before its logs
// restarted, the next boot loads the new key over logs routed under the old
// one: it must rebaseline, not continue them.
TEST_F(WalShardingTest, CrashAfterFreshRouteKeyNeverContinuesOldLogs) {
  std::map<std::string, std::string> acked;
  {
    Stack s = Boot("fresh-key-0", 2);
    ASSERT_TRUE(s.booted.ok()) << s.booted.ToString();
    OverwriteAndDelete(*s.wal, "boot0", acked);
  }
  ASSERT_TRUE(std::filesystem::remove(SnapshotDir() + "/route.seal"));
  {
    Stack s = Boot("fresh-key-1", 2, 0, WriteAheadStore::CompactionCrash::kBeforeTruncate);
    ASSERT_EQ(s.booted.code(), Code::kIoError) << s.booted.ToString();
    ASSERT_TRUE(s.store->SaveRouteKey(*sealer_, SnapshotDir()).ok());
  }
  {
    Stack s = Boot("fresh-key-2", 2);
    ASSERT_TRUE(s.booted.ok()) << s.booted.ToString();
    EXPECT_FALSE(s.wal->logs_continued()) << "the logs follow the old route key";
    EXPECT_EQ(Dump(*s.store), acked);
    OverwriteAndDelete(*s.wal, "boot2", acked);
  }
  Stack last = Boot("fresh-key-3", 2);
  ASSERT_TRUE(last.booted.ok()) << last.booted.ToString();
  EXPECT_TRUE(last.wal->logs_continued());
  EXPECT_EQ(Dump(*last.store), acked);
}

// Continued logs span boots, so losing one would lose every acked write to
// its shard since the last rebaseline. The sealed log set names them: a
// removed or emptied shard log, or a removed partition generation, fails
// the boot instead of restoring less.
TEST_F(WalShardingTest, RemovedOrEmptiedShardLogFailsBootWithRollback) {
  std::map<std::string, std::string> acked;
  for (int boot = 0; boot < 2; ++boot) {
    Stack s = Boot("removed-" + std::to_string(boot), 2);
    ASSERT_TRUE(s.booted.ok()) << s.booted.ToString();
    OverwriteAndDelete(*s.wal, "boot" + std::to_string(boot), acked);
  }
  const std::string shard0 = LogOptions().path + ".p0";
  const std::string kept = dir_ + "/kept.p0";
  std::filesystem::copy_file(shard0, kept);
  const auto put_back = [&] {
    std::filesystem::copy_file(kept, shard0, std::filesystem::copy_options::overwrite_existing);
  };

  ASSERT_TRUE(std::filesystem::remove(shard0));
  EXPECT_EQ(Boot("removed-2", 2).booted.code(), Code::kRollbackDetected);

  put_back();
  std::filesystem::resize_file(shard0, 0);
  EXPECT_EQ(Boot("removed-3", 2).booted.code(), Code::kRollbackDetected);
  {
    // Open() before the restore recreates the empty log under a fresh
    // counter; the restore still refuses it.
    sgx::Enclave enclave2(TestEnclaveConfig("removed-open-first"));
    PartitionedStore store2(enclave2, SmallOptions(), 2);
    WriteAheadStore wal2(store2, *sealer_, *counters_, LogOptions());
    ASSERT_TRUE(wal2.Open().ok());
    EXPECT_EQ(wal2.RestoreFromDisk(SnapshotDir()).code(), Code::kRollbackDetected);
  }

  put_back();
  const std::string generation = SnapshotDir() + "/p1";
  std::filesystem::rename(generation, dir_ + "/kept-p1");
  EXPECT_EQ(Boot("removed-4", 2).booted.code(), Code::kRollbackDetected);
  std::filesystem::rename(dir_ + "/kept-p1", generation);

  Stack s = Boot("removed-5", 2);
  ASSERT_TRUE(s.booted.ok()) << s.booted.ToString();
  EXPECT_TRUE(s.wal->logs_continued());
  EXPECT_EQ(Dump(*s.store), acked);
}

// Without a sealed log set (removed along with shard log 0), the removal
// goes undetected, but a gap in the shard log numbering must not hide the
// logs after it: shard 1's acked writes still come back.
TEST_F(WalShardingTest, ShardLogGapWithoutLogSetHidesNoLaterLog) {
  std::map<std::string, std::string> acked;
  for (int boot = 0; boot < 2; ++boot) {
    Stack s = Boot("gap-" + std::to_string(boot), 2);
    ASSERT_TRUE(s.booted.ok()) << s.booted.ToString();
    OverwriteAndDelete(*s.wal, "boot" + std::to_string(boot), acked);
  }
  ASSERT_TRUE(std::filesystem::remove(SnapshotDir() + "/wal.seal"));
  ASSERT_TRUE(std::filesystem::remove(LogOptions().path + ".p0"));
  Stack s = Boot("gap-2", 2);
  ASSERT_TRUE(s.booted.ok()) << s.booted.ToString();
  EXPECT_FALSE(s.wal->logs_continued());
  size_t checked = 0;
  for (const auto& [key, value] : acked) {
    if (s.store->PartitionOf(key) == 1) {
      const Result<std::string> got = s.wal->Get(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      EXPECT_EQ(got.value(), value) << key;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10u);
}

TEST_F(WalShardingTest, ShardLocalMetricsRegisterPerShardSeries) {
  // Shard-local observability: each live WAL shard registers its own
  // record counter and log-size gauge in the injected registry, and fsync
  // latency lands in the shared wal.fsync_ns histogram — none of it in the
  // process-global registry.
  obs::Registry registry;
  PartitionedStore store(enclave_, SmallOptions(), 2);
  OpLogOptions log_opts = LogOptions();
  log_opts.metrics = &registry;
  log_opts.group_commit_ops = 4;
  WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_EQ(wal.num_shards(), 2u);

  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(wal.Set("m-" + std::to_string(i), "v").ok());
  }

  // Every append is attributed to exactly one shard's counter.
  uint64_t per_shard_total = 0;
  for (size_t s = 0; s < wal.num_shards(); ++s) {
    const std::string prefix = "wal.shard" + std::to_string(s);
    per_shard_total += registry.GetCounter(prefix + ".records").Value();
    // The gauge tracks file growth at commit cadence: past the 8-byte header.
    EXPECT_GT(registry.GetGauge(prefix + ".log_bytes").Value(), 8) << prefix;
  }
  EXPECT_EQ(per_shard_total, 64u);

  // Every ack waited for a group commit on its shard, so each shard
  // fsynced; the latency histogram saw every one.
  EXPECT_GE(registry.GetHistogram("wal.fsync_ns").Data().count, wal.num_shards());
}

// Adaptive group-commit window: near-empty batches (a solo synchronous
// writer) shrink the window toward the floor so singleton acks stop idling
// out the full cap; a burst that fills batches grows it back, 2x per commit,
// capped at the configured value. Deterministic: batch size alone drives the
// adaptation, never wall-clock arrival timing.
TEST_F(WalShardingTest, GroupCommitWindowAdaptsToBatchSize) {
  obs::Registry registry;
  PartitionedStore store(enclave_, SmallOptions(), 1);
  OpLogOptions log_opts = LogOptions();
  log_opts.group_commit_window_us = 3200;
  log_opts.group_commit_ops = 8;
  log_opts.metrics = &registry;
  WriteAheadStore wal(store, *sealer_, *counters_, log_opts);
  ASSERT_TRUE(wal.Open().ok());
  const uint32_t cap = 3200;
  const uint32_t floor_us = cap / 16;
  ASSERT_EQ(wal.shard_window_us(0), cap) << "window starts at the configured cap";

  // Solo writers: every commit is a batch of one, halving the window until
  // the floor. 3200 -> 1600 -> 800 -> 400 -> 200 (floor) in four commits.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(wal.Set("solo-" + std::to_string(i), "v").ok());
  }
  EXPECT_EQ(wal.shard_window_us(0), floor_us);
  EXPECT_EQ(registry.GetGauge("wal.window_us").Value(), static_cast<int64_t>(floor_us));

  // Bursts: a batch with >= group_commit_ops mutations lands under ONE
  // commit handle, so each ExecuteBatch doubles the window back: 200 -> 400
  // -> 800 -> 1600 -> 3200, then pins at the cap.
  for (int round = 0; round < 6; ++round) {
    std::vector<kv::BatchOp> ops;
    for (int i = 0; i < 8; ++i) {
      kv::BatchOp op;
      op.type = kv::BatchOpType::kSet;
      op.key = "burst-" + std::to_string(round) + "-" + std::to_string(i);
      op.value = "v";
      ops.push_back(op);
    }
    for (const kv::BatchOpResult& r : wal.ExecuteBatch(ops)) {
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    }
  }
  EXPECT_EQ(wal.shard_window_us(0), cap) << "burst growth must saturate at the cap";
  EXPECT_EQ(registry.GetGauge("wal.window_us").Value(), static_cast<int64_t>(cap));
}

}  // namespace
}  // namespace shield
