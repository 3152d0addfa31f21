// Concurrency battery: writer threads, reader threads, a background healer,
// and a background adversary all hammer one self-healing store at once. Run
// under SHIELD_SANITIZE=thread (scripts/check.sh does) — the point of these
// tests is as much "no data race" as "no lost acknowledged write".
//
// Correctness model per key (each key owned by exactly one writer thread):
// after the store drains and heals, the key's value must be its last
// acknowledged value or one attempted after that ack (an in-flight write may
// or may not have landed); it must never be an older acked value (lost
// write) or garbage.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/faultinject/tamper.h"
#include "src/obs/snapshot.h"
#include "src/obs/tracer.h"
#include "src/sgx/epc.h"
#include "src/shieldstore/partitioned.h"
#include "src/shieldstore/selfheal.h"

namespace shield {
namespace {

using faultinject::RaceTamperer;
using shieldstore::Options;
using shieldstore::OpLogOptions;
using shieldstore::PartitionedStore;
using shieldstore::SelfHealer;
using shieldstore::SelfHealOptions;
using shieldstore::WriteAheadStore;

sgx::EnclaveConfig TestEnclaveConfig() {
  sgx::EnclaveConfig c;
  c.name = "concurrency-test";
  c.epc.epc_bytes = 8u << 20;
  c.epc.crossing_cycles = 0;
  c.epc.kernel_fault_cycles = 0;
  c.epc.resident_access_cycles = 0;
  c.epc.page_crypto = false;
  c.heap_reserve_bytes = 256u << 20;
  c.rng_seed = ToBytes("concurrency-test");
  return c;
}

Options SmallOptions() {
  Options o;
  o.num_buckets = 512;
  o.heap_chunk_bytes = 1 << 20;
  o.scrub_budget_buckets = 64;
  return o;
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  ConcurrencyTest() : enclave_(TestEnclaveConfig()) {
    dir_ = ::testing::TempDir() + "/concurrency_" + std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    counter_opts_.backing_file = dir_ + "/counters.bin";
    counter_opts_.increment_cost_cycles = 0;
  }
  ~ConcurrencyTest() override { std::filesystem::remove_all(dir_); }

  // Writers, the compactor and an adversary race on one sharded WAL.
  void RunCompactionRace(uint32_t group_commit_window_us);

  sgx::Enclave enclave_;
  std::string dir_;
  sgx::MonotonicCounterService::Options counter_opts_;
};

// Per-key write tracking, owned by a single writer thread (no locking).
struct KeyHistory {
  bool ever_acked = false;
  std::string acked;                // last acknowledged value
  std::set<std::string> attempted;  // values attempted since that ack
};

TEST_F(ConcurrencyTest, SelfHealingStoreSurvivesConcurrentTamper) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kKeysPerWriter = 16;
  constexpr int kRounds = 60;

  sgx::SealingService sealer(AsBytes("fuse"), enclave_.measurement());
  sgx::MonotonicCounterService counters(counter_opts_);
  PartitionedStore ps(enclave_, SmallOptions(), 4);

  OpLogOptions log_opts;
  log_opts.path = dir_ + "/wal.log";
  WriteAheadStore wal(ps, sealer, counters, log_opts);
  ASSERT_TRUE(wal.Open().ok());

  SelfHealOptions heal_opts;
  heal_opts.directory = dir_ + "/snapshots";
  SelfHealer healer(wal, sealer, counters, heal_opts);
  ASSERT_TRUE(healer.Start().ok());

  // Background healer (the role the network server's maintenance thread
  // plays in production).
  std::atomic<bool> stop_healer{false};
  std::thread healer_thread([&] {
    while (!stop_healer.load()) {
      healer.Tick();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Background adversary.
  RaceTamperer::Options tamper_opts;
  tamper_opts.seed = 0xdead5eed;
  tamper_opts.interval_ms = 3;
  RaceTamperer tamperer(ps, tamper_opts);
  tamperer.Start();

  // Readers: random probes across every writer's key space. Any outcome is
  // legal except a crash or a torn value; they exist to race the read path
  // against writers, the healer, and the adversary.
  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(0xbeef + r);
      while (!stop_readers.load()) {
        const std::string key = "w" + std::to_string(rng.NextBelow(kWriters)) + "-k" +
                                std::to_string(rng.NextBelow(kKeysPerWriter));
        (void)wal.Get(key);
      }
    });
  }

  // Writers: each owns a disjoint key range and tracks ack history.
  std::vector<std::vector<KeyHistory>> histories(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    histories[w].resize(kKeysPerWriter);
    writers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < kKeysPerWriter; ++k) {
          const std::string key = "w" + std::to_string(w) + "-k" + std::to_string(k);
          const std::string value =
              "v" + std::to_string(round) + "-" + std::to_string(w * 1000 + k);
          KeyHistory& h = histories[w][k];
          h.attempted.insert(value);
          if (wal.Set(key, value).ok()) {
            h.ever_acked = true;
            h.acked = value;
            h.attempted.clear();
          }
        }
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  stop_readers.store(true);
  for (auto& t : readers) {
    t.join();
  }

  // Stop the adversary, then drain: keep ticking until every partition is
  // healthy AND a full scrub passes (a final tamper may still be latent).
  tamperer.Stop();
  stop_healer.store(true);
  healer_thread.join();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (true) {
    if (ps.QuarantinedCount() == 0 && ps.ScrubAll().ok()) {
      break;
    }
    healer.Tick();
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "store did not heal: " << healer.last_error().ToString()
        << " (failed recoveries: " << healer.failed_recoveries() << ")";
  }

  EXPECT_GT(tamperer.attacks_launched(), 0u);

  // Zero acknowledged-write loss: every key reads back its last acked value,
  // or one attempted after that ack (in-flight at a quarantine boundary).
  for (int w = 0; w < kWriters; ++w) {
    for (int k = 0; k < kKeysPerWriter; ++k) {
      const std::string key = "w" + std::to_string(w) + "-k" + std::to_string(k);
      const KeyHistory& h = histories[w][k];
      Result<std::string> got = wal.Get(key);
      if (!h.ever_acked) {
        continue;  // nothing was promised for this key
      }
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      EXPECT_TRUE(got.value() == h.acked || h.attempted.count(got.value()) > 0)
          << key << " holds '" << got.value() << "', last acked '" << h.acked << "'";
    }
  }
}

TEST_F(ConcurrencyTest, WriteAheadStoreMixedOpsRaceCleanly) {
  constexpr int kThreads = 4;
  constexpr int kIncrements = 200;

  sgx::SealingService sealer(AsBytes("fuse"), enclave_.measurement());
  sgx::MonotonicCounterService counters(counter_opts_);
  PartitionedStore ps(enclave_, SmallOptions(), 4);

  OpLogOptions log_opts;
  log_opts.path = dir_ + "/wal.log";
  WriteAheadStore wal(ps, sealer, counters, log_opts);
  ASSERT_TRUE(wal.Open().ok());

  // Increment/Append require an existing key.
  ASSERT_TRUE(wal.Set("shared-counter", "0").ok());
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(wal.Set("log-t" + std::to_string(t), "").ok());
  }

  // No adversary here: with every op serialized through the log, shared
  // counters and mixed ops must be exactly consistent.
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIncrements; ++i) {
        if (!wal.Increment("shared-counter", 1).ok()) {
          ++failures;
        }
        const std::string key = "t" + std::to_string(t) + "-i" + std::to_string(i % 8);
        if (!wal.Set(key, std::to_string(i)).ok()) {
          ++failures;
        }
        if (i % 16 == 0 && !wal.Append("log-t" + std::to_string(t), ".").ok()) {
          ++failures;
        }
        (void)wal.Get(key);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  EXPECT_EQ(failures.load(), 0);
  Result<std::string> counter = wal.Get("shared-counter");
  ASSERT_TRUE(counter.ok());
  EXPECT_EQ(counter.value(), std::to_string(kThreads * kIncrements));
  for (int t = 0; t < kThreads; ++t) {
    Result<std::string> log = wal.Get("log-t" + std::to_string(t));
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(log.value().size(), static_cast<size_t>((kIncrements + 15) / 16));
  }
  EXPECT_TRUE(ps.ScrubAll().ok());
}

TEST_F(ConcurrencyTest, ShardedDurableWindowWritersRaceCleanly) {
  // Group-commit stress: concurrent writers on a per-partition sharded WAL
  // in durable-ack mode. Writers whose keys share a shard race the
  // leader/follower handoff (one fsyncs for the batch, the rest wait on the
  // cv); writers on different shards must never contend. Run under TSan.
  constexpr int kThreads = 4;
  constexpr int kKeysPerWriter = 8;
  constexpr int kRounds = 40;

  sgx::SealingService sealer(AsBytes("fuse"), enclave_.measurement());
  sgx::MonotonicCounterService counters(counter_opts_);
  PartitionedStore ps(enclave_, SmallOptions(), 4);

  obs::Registry registry;
  OpLogOptions log_opts;
  log_opts.path = dir_ + "/wal.log";
  log_opts.group_commit_window_us = 100;
  log_opts.group_commit_ops = 8;
  log_opts.metrics = &registry;
  WriteAheadStore wal(ps, sealer, counters, log_opts);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_EQ(wal.num_shards(), 4u);

  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < kKeysPerWriter; ++k) {
          const std::string key = "dw" + std::to_string(w) + "-k" + std::to_string(k);
          if (!wal.Set(key, "r" + std::to_string(round)).ok()) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }

  EXPECT_EQ(failures.load(), 0);
  const uint64_t records = registry.GetCounter("wal.records").Value();
  EXPECT_EQ(records, static_cast<uint64_t>(kThreads * kKeysPerWriter * kRounds));
  // Group commit amortized: strictly fewer fsyncs than records (batches of
  // up to group_commit_ops shared one fsync).
  EXPECT_LT(registry.GetCounter("wal.fsyncs").Value(), records);
  for (int w = 0; w < kThreads; ++w) {
    for (int k = 0; k < kKeysPerWriter; ++k) {
      Result<std::string> got = wal.Get("dw" + std::to_string(w) + "-k" + std::to_string(k));
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), "r" + std::to_string(kRounds - 1));
    }
  }
  EXPECT_TRUE(ps.ScrubAll().ok());
}

TEST_F(ConcurrencyTest, BatchedWritersRaceScrubHealerAndAdversary) {
  // Batched pipeline under fire: writer threads issue multi-op batches
  // (partition-grouped execution, deferred MAC recomputation, one group-
  // commit handle per shard) while a scrubbing healer and a tamperer run.
  // Run under TSan. Model: a batch sub-op acked ok obeys the same zero-
  // acked-loss contract as a singleton write.
  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 12;
  constexpr int kRounds = 30;

  sgx::SealingService sealer(AsBytes("fuse"), enclave_.measurement());
  sgx::MonotonicCounterService counters(counter_opts_);
  PartitionedStore ps(enclave_, SmallOptions(), 4);

  OpLogOptions log_opts;
  log_opts.path = dir_ + "/wal.log";
  log_opts.group_commit_window_us = 100;
  log_opts.group_commit_ops = 8;
  WriteAheadStore wal(ps, sealer, counters, log_opts);
  ASSERT_TRUE(wal.Open().ok());

  SelfHealOptions heal_opts;
  heal_opts.directory = dir_ + "/snapshots";
  SelfHealer healer(wal, sealer, counters, heal_opts);
  ASSERT_TRUE(healer.Start().ok());

  std::atomic<bool> stop_healer{false};
  std::thread healer_thread([&] {
    while (!stop_healer.load()) {
      healer.Tick();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  RaceTamperer::Options tamper_opts;
  tamper_opts.seed = 0xba7c4ace;
  tamper_opts.interval_ms = 4;
  RaceTamperer tamperer(ps, tamper_opts);
  tamperer.Start();

  std::vector<std::vector<KeyHistory>> histories(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    histories[w].resize(kKeysPerWriter);
    writers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        // One batch per round covering every owned key plus interleaved
        // reads — sub-ops land on all four partitions.
        std::vector<kv::BatchOp> ops;
        for (int k = 0; k < kKeysPerWriter; ++k) {
          const std::string key = "bw" + std::to_string(w) + "-k" + std::to_string(k);
          ops.push_back({kv::BatchOpType::kSet, key,
                         "v" + std::to_string(round) + "-" + std::to_string(w), 0});
          if (k % 3 == 0) {
            ops.push_back({kv::BatchOpType::kGet, key, "", 0});
          }
        }
        const std::vector<kv::BatchOpResult> results = wal.ExecuteBatch(ops);
        for (size_t i = 0; i < ops.size(); ++i) {
          if (ops[i].type != kv::BatchOpType::kSet) {
            continue;
          }
          const int k = std::stoi(ops[i].key.substr(ops[i].key.find("-k") + 2));
          KeyHistory& h = histories[w][k];
          h.attempted.insert(ops[i].value);
          if (results[i].status.ok()) {
            h.ever_acked = true;
            h.acked = ops[i].value;
            h.attempted.clear();
          }
        }
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  tamperer.Stop();
  stop_healer.store(true);
  healer_thread.join();

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (true) {
    if (ps.QuarantinedCount() == 0 && ps.ScrubAll().ok()) {
      break;
    }
    healer.Tick();
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "store did not heal: " << healer.last_error().ToString();
  }

  for (int w = 0; w < kWriters; ++w) {
    for (int k = 0; k < kKeysPerWriter; ++k) {
      const std::string key = "bw" + std::to_string(w) + "-k" + std::to_string(k);
      const KeyHistory& h = histories[w][k];
      if (!h.ever_acked) {
        continue;
      }
      Result<std::string> got = wal.Get(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      EXPECT_TRUE(got.value() == h.acked || h.attempted.count(got.value()) > 0)
          << key << " holds '" << got.value() << "', last acked '" << h.acked << "'";
    }
  }
}

// Every ack waits for a group-commit leader, at a 0 window as at a nonzero
// one, so a compaction that lands between a leader's commit and its
// followers waking must still let those followers return.
void ConcurrencyTest::RunCompactionRace(uint32_t group_commit_window_us) {
  // The compactor (maintenance thread) folds shard logs into snapshots
  // while writers append to those same shards, and an adversary forces
  // recoveries that contend for the same shard locks. Nothing may race,
  // nothing acked may be lost, no ack may wedge, and compaction must
  // actually run.
  constexpr int kWriters = 3;
  constexpr int kKeysPerWriter = 12;
  constexpr int kRounds = 50;

  sgx::SealingService sealer(AsBytes("fuse"), enclave_.measurement());
  sgx::MonotonicCounterService counters(counter_opts_);
  PartitionedStore ps(enclave_, SmallOptions(), 4);

  OpLogOptions log_opts;
  log_opts.path = dir_ + "/wal.log";
  log_opts.group_commit_ops = 8;
  log_opts.group_commit_window_us = group_commit_window_us;
  WriteAheadStore wal(ps, sealer, counters, log_opts);
  ASSERT_TRUE(wal.Open().ok());

  SelfHealOptions heal_opts;
  heal_opts.directory = dir_ + "/snapshots";
  heal_opts.compact_log_bytes = 2048;  // compact constantly under load
  SelfHealer healer(wal, sealer, counters, heal_opts);
  ASSERT_TRUE(healer.Start().ok());

  std::atomic<bool> stop_healer{false};
  std::thread healer_thread([&] {
    while (!stop_healer.load()) {
      healer.Tick();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  RaceTamperer::Options tamper_opts;
  tamper_opts.seed = 0xc0ffee;
  tamper_opts.interval_ms = 5;
  RaceTamperer tamperer(ps, tamper_opts);
  tamperer.Start();

  std::vector<std::vector<KeyHistory>> histories(kWriters);
  std::vector<std::thread> writers;
  std::atomic<int> writers_done{0};
  for (int w = 0; w < kWriters; ++w) {
    histories[w].resize(kKeysPerWriter);
    writers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < kKeysPerWriter; ++k) {
          const std::string key = "c" + std::to_string(w) + "-k" + std::to_string(k);
          const std::string value = "v" + std::to_string(round) + "-" + std::to_string(w);
          KeyHistory& h = histories[w][k];
          h.attempted.insert(value);
          if (wal.Set(key, std::string(64, 'p') + value).ok()) {
            h.ever_acked = true;
            h.acked = std::string(64, 'p') + value;
            h.attempted.clear();
          }
        }
      }
      writers_done.fetch_add(1);
    });
  }
  // A wedged ack blocks its writer inside Set() forever, where no join can
  // reach it: fail fast rather than wait out the ctest timeout.
  const auto writer_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (writers_done.load() < kWriters) {
    if (std::chrono::steady_clock::now() > writer_deadline) {
      ADD_FAILURE() << "a durable ack never returned: writers wedged under compaction";
      std::abort();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (auto& t : writers) {
    t.join();
  }
  tamperer.Stop();
  stop_healer.store(true);
  healer_thread.join();

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (true) {
    if (ps.QuarantinedCount() == 0 && ps.ScrubAll().ok()) {
      break;
    }
    healer.Tick();
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "store did not heal: " << healer.last_error().ToString();
  }

  // Under sanitizer slowdown the adversary can keep every in-load compaction
  // attempt deferred (a quarantined partition refuses to snapshot), so if
  // none succeeded during the race window, force one now that the store is
  // healthy: grow a shard past the threshold and tick until it folds.
  const auto compact_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  int filler = 0;
  while (healer.compactions() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), compact_deadline)
        << "compaction never ran: " << healer.last_error().ToString();
    ASSERT_TRUE(wal.Set("fill-" + std::to_string(filler % 8),
                        std::string(256, 'f') + std::to_string(filler))
                    .ok());
    ++filler;
    healer.Tick();
  }
  EXPECT_GE(healer.compactions(), 1u) << "compaction never ran under load";
  for (int w = 0; w < kWriters; ++w) {
    for (int k = 0; k < kKeysPerWriter; ++k) {
      const std::string key = "c" + std::to_string(w) + "-k" + std::to_string(k);
      const KeyHistory& h = histories[w][k];
      if (!h.ever_acked) {
        continue;
      }
      Result<std::string> got = wal.Get(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      EXPECT_TRUE(got.value() == h.acked ||
                  h.attempted.count(got.value().substr(64)) > 0)
          << key << " holds '" << got.value() << "'";
    }
  }
}

TEST_F(ConcurrencyTest, CompactionRacesWritersHealerAndAdversary) { RunCompactionRace(0); }

TEST_F(ConcurrencyTest, CompactionRacesWritersHealerAndAdversaryUnderCommitWindow) {
  RunCompactionRace(100);
}

// Resident-page touches from several threads land in per-thread slots; the
// folded count must still be exact, and ResetStats must clear every slot.
TEST_F(ConcurrencyTest, EpcTouchCountIsExactAcrossThreads) {
  sgx::EpcConfig config;
  config.epc_bytes = 64 * 4096;
  config.crossing_cycles = 0;
  config.kernel_fault_cycles = 0;
  config.resident_access_cycles = 0;
  config.page_crypto = false;
  std::vector<uint8_t> region(16 * 4096);
  sgx::EpcSimulator epc(config, region.data(), region.size());
  epc.Touch(region.data(), region.size(), /*write=*/true);  // every page resident
  epc.ResetStats();
  EXPECT_EQ(epc.stats().touches, 0u);
  constexpr int kThreads = 4;
  constexpr int kTouchesPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kTouchesPerThread; ++i) {
        const size_t page = static_cast<size_t>(i * 7 + t) % 16;
        epc.Touch(region.data() + page * 4096, 64, i % 2 == 0);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const sgx::EpcStats stats = epc.stats();
  EXPECT_EQ(stats.touches, uint64_t{kThreads} * kTouchesPerThread);
  EXPECT_EQ(stats.faults, 0u);
  EXPECT_EQ(stats.resident_pages, 16u);
  epc.ResetStats();
  EXPECT_EQ(epc.stats().touches, 0u);
}

// Metrics recorders race snapshot readers (run under TSan by check.sh):
// sharded relaxed-atomic recording must be data-race-free against concurrent
// Registry::Snapshot folds, and exact once the recorders join.
TEST_F(ConcurrencyTest, MetricsRecordersRaceSnapshots) {
  obs::Registry registry;
  obs::Counter& ops = registry.GetCounter("race.ops");
  obs::Gauge& level = registry.GetGauge("race.level");
  obs::Histogram& lat = registry.GetHistogram("race.latency");
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 10'000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        ops.Inc();
        level.Add(1);
        lat.Record(static_cast<uint64_t>(t) * 1000 + static_cast<uint64_t>(i));
        obs::Scope stage(&registry, obs::Stage::kDecode);
        level.Add(-1);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::MetricsSnapshot snap = registry.Snapshot();
      const obs::HistogramData* h = snap.Histogram("race.latency");
      ASSERT_NE(h, nullptr);
      uint64_t total = 0;
      for (const auto& [index, n] : h->buckets) {
        total += n;
      }
      EXPECT_EQ(total, h->count);
      // Wire-encode mid-race too: the codec must only ever see valid folds.
      EXPECT_TRUE(obs::DecodeStatsSnapshot(obs::EncodeStatsSnapshot(snap)).ok());
    }
  });
  for (auto& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(ops.Value(), uint64_t{kWriters} * kOpsPerWriter);
  EXPECT_EQ(level.Value(), 0);
  EXPECT_EQ(lat.Data().count, uint64_t{kWriters} * kOpsPerWriter);
  EXPECT_EQ(registry.StageHistogram(obs::Stage::kDecode).Data().count,
            uint64_t{kWriters} * kOpsPerWriter);
}

}  // namespace
}  // namespace shield
