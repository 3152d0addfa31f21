// The traced layer ladder. Every rung is driven through its public entry
// point (kv::KeyValueStore wherever the layer has one) with a span around
// each call; a rung's latency is the p50 of its spans, and "added" is the
// rung's p50 minus the p50 of the rung below.
//
// Rungs, bottom to top:
//   crypto       AES-CTR and CMAC over one value (crypto primitives)
//   store        one shieldstore::Store
//   owned        PartitionedStore partitions driven by their owner thread
//   partitioned  the PartitionedStore facade (per-partition mutex)
//   wal          WriteAheadStore over the facade (durable group commit)
//   net          net::Server over the WAL stack, via net::Client
//   router       router::Router -> primary server shipping to a standby
#include "ssbench/src/ladder.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "src/crypto/aes.h"
#include "src/crypto/cmac.h"
#include "src/crypto/ctr.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/router/replica.h"
#include "src/router/router.h"
#include "src/router/shipper.h"
#include "src/sgx/attestation.h"
#include "src/sgx/counter.h"
#include "src/sgx/enclave.h"
#include "src/sgx/seal.h"
#include "src/shieldstore/partitioned.h"
#include "src/shieldstore/selfheal.h"
#include "src/shieldstore/store.h"
#include "ssbench/src/spans.h"

namespace ssbench {
namespace {

using shield::Status;
using shield::workload::KeyAt;
using shield::workload::Op;
using shield::workload::ValueFor;

constexpr size_t kLadderPartitions = 4;
constexpr size_t kDaemonBuckets = size_t{1} << 18;  // shieldstore_server default
constexpr uint32_t kDaemonWalWindowUs = 200;        // shieldstore_server default
constexpr size_t kPreloadBatch = 256;
constexpr uint64_t kRouterKeys = 2000;
constexpr size_t kSpansPerThread = 4000;  // Chrome trace size bound
constexpr size_t kCryptoBatch = 64;       // crypto calls per span

// The verbs a rung must offer: the kv::KeyValueStore surface, or a client.
struct Target {
  std::function<Status(const std::string&, const std::string&)> set;
  std::function<shield::Result<std::string>(const std::string&)> get;
};

Target KvTarget(shield::kv::KeyValueStore& kv) {
  return {[&kv](const std::string& k, const std::string& v) { return kv.Set(k, v); },
          [&kv](const std::string& k) { return kv.Get(k); }};
}

struct RungLatency {
  Samples get;
  Samples set;
  uint64_t errors = 0;
  double wall_s = 0;
};

class Ladder {
 public:
  explicit Ladder(const LadderConfig& c) : c_(c) {}

  // Latency pass: one thread, alternating Get and Set on keys drawn from
  // the workload's distribution (so every rung has both verbs), one span
  // per call under the rung's root span. A null buffer runs untraced.
  RungLatency Latency(const char* rung, const char* get_name, const char* set_name,
                      const Target& t, uint64_t ops, bool traced = true, uint64_t keys = 0) {
    SpanRecorder::Buffer* buf = traced ? recorder_.NewBuffer() : nullptr;
    ScopedSpan root(buf, rung, 0, 0);
    shield::workload::WorkloadGenerator gen(c_.mix, keys > 0 ? keys : c_.keys, c_.seed * 31 + 7);
    RungLatency r;
    const uint64_t start = NowNs();
    for (uint64_t i = 0; i < ops; ++i) {
      const Op op = gen.Next();
      const std::string key = KeyAt(op.key_index, c_.key_bytes);
      const uint64_t t0 = NowNs();
      if (i % 2 == 0) {
        ScopedSpan s(buf, get_name, root.id(), i);
        auto v = t.get(key);
        r.errors += v.ok() ? 0 : 1;
        r.get.Add(NowNs() - t0);
      } else {
        const std::string value = ValueFor(op.key_index, NextVersion(), c_.value_bytes);
        ScopedSpan s(buf, set_name, root.id(), i);
        r.errors += t.set(key, value).ok() ? 0 : 1;
        r.set.Add(NowNs() - t0);
      }
    }
    r.wall_s = static_cast<double>(NowNs() - start) / 1e9;
    return r;
  }

  // Throughput pass: `threads` threads replay the workload mix; thread i
  // uses targets[i]. Returns kop/s.
  double Throughput(const char* rung, const std::vector<Target>& targets, uint64_t ops_per_thread,
                    const std::function<bool(size_t, const std::string&)>& owns = nullptr) {
    std::vector<std::thread> threads;
    std::atomic<uint64_t> done{0};
    const uint64_t start = NowNs();
    for (size_t i = 0; i < targets.size(); ++i) {
      threads.emplace_back([&, i] {
        SpanRecorder::Buffer* buf = recorder_.NewBuffer();
        ScopedSpan root(buf, rung, 0, 0);
        shield::workload::WorkloadGenerator gen(c_.mix, c_.keys, c_.seed * 131 + i);
        uint64_t n = 0;
        while (n < ops_per_thread) {
          const Op op = gen.Next();
          const std::string key = KeyAt(op.key_index, c_.key_bytes);
          if (owns != nullptr && !owns(i, key)) {
            continue;
          }
          ScopedSpan s(buf, "op", root.id(), n);
          if (op.kind == Op::Kind::kGet) {
            (void)targets[i].get(key);
          } else {
            (void)targets[i].set(key, ValueFor(op.key_index, NextVersion(), c_.value_bytes));
          }
          ++n;
        }
        done.fetch_add(n);
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    return static_cast<double>(done.load()) / 1e3 /
           (static_cast<double>(NowNs() - start) / 1e9);
  }

  // Crypto rung: CTR and CMAC over one value-sized buffer. Each span times
  // a batch of kCryptoBatch calls, so a span is long enough to resolve;
  // reports the p50 batch in ns per KiB.
  void Crypto(uint64_t batches, double* ctr_ns_per_kib, double* cmac_ns_per_kib) {
    SpanRecorder::Buffer* buf = recorder_.NewBuffer();
    ScopedSpan root(buf, "ladder.crypto", 0, 0);
    const shield::Bytes key(16, 0x5a);
    shield::crypto::Aes128 aes(key);
    shield::crypto::CmacKey cmac_key(key);
    shield::Bytes in(c_.value_bytes, 0x42);
    shield::Bytes out(c_.value_bytes);
    uint8_t counter[shield::crypto::kAesBlockSize] = {};
    Samples ctr;
    Samples cmac;
    for (uint64_t b = 0; b < batches; ++b) {
      {
        ScopedSpan s(buf, "crypto.ctr", root.id(), b);
        const uint64_t t0 = NowNs();
        for (size_t i = 0; i < kCryptoBatch; ++i) {
          counter[0] = static_cast<uint8_t>(i);
          shield::crypto::AesCtrTransform(aes, counter, 32, in, out);
        }
        ctr.Add(NowNs() - t0);
      }
      {
        ScopedSpan s(buf, "crypto.cmac", root.id(), b);
        const uint64_t t0 = NowNs();
        for (size_t i = 0; i < kCryptoBatch; ++i) {
          shield::crypto::Cmac mac(cmac_key);
          mac.Update(out);
          const shield::crypto::Mac tag = mac.Finalize();
          out[0] ^= tag[0];  // chain the calls so none can be skipped
        }
        cmac.Add(NowNs() - t0);
      }
    }
    const double kib = static_cast<double>(c_.value_bytes * kCryptoBatch) / 1024.0;
    *ctr_ns_per_kib = ctr.PercentileUs(0.5) * 1e3 / kib;
    *cmac_ns_per_kib = cmac.PercentileUs(0.5) * 1e3 / kib;
  }

  // Preloads keys [0, keys) (default: all) at version 0 through `kv`'s
  // batch path.
  void Preload(shield::kv::KeyValueStore& kv, uint64_t keys = 0) {
    keys = keys > 0 ? keys : c_.keys;
    for (uint64_t base = 0; base < keys; base += kPreloadBatch) {
      std::vector<shield::kv::BatchOp> batch;
      for (uint64_t k = base; k < std::min(keys, base + kPreloadBatch); ++k) {
        shield::kv::BatchOp op;
        op.type = shield::kv::BatchOpType::kSet;
        op.key = KeyAt(k, c_.key_bytes);
        op.value = ValueFor(k, 0, c_.value_bytes);
        batch.push_back(std::move(op));
      }
      (void)kv.ExecuteBatch(batch);
    }
  }

  uint64_t NextVersion() { return version_.fetch_add(1, std::memory_order_relaxed) + 1; }
  SpanRecorder& recorder() { return recorder_; }

 private:
  const LadderConfig& c_;
  SpanRecorder recorder_;
  std::atomic<uint64_t> version_{0};
};

// One in-process durable node: the facade and, once opened, its WAL.
struct Node {
  shield::sgx::Enclave& enclave;
  std::unique_ptr<shield::shieldstore::PartitionedStore> store;
  std::unique_ptr<shield::sgx::SealingService> sealer;
  std::unique_ptr<shield::sgx::MonotonicCounterService> counters;
  std::unique_ptr<shield::shieldstore::WriteAheadStore> wal;

  Node(shield::sgx::Enclave& e, const std::string& dir) : enclave(e) {
    std::filesystem::create_directories(dir);
    shield::shieldstore::Options options;
    options.num_buckets = kDaemonBuckets;
    store = std::make_unique<shield::shieldstore::PartitionedStore>(enclave, options,
                                                                    kLadderPartitions);
    sealer = std::make_unique<shield::sgx::SealingService>(
        shield::AsBytes(std::string("ssbench-ladder")), enclave.measurement());
    shield::sgx::MonotonicCounterService::Options counter_opts;
    counter_opts.backing_file = dir + "/counters.bin";
    counters = std::make_unique<shield::sgx::MonotonicCounterService>(counter_opts);
  }

  Status OpenWal(const std::string& dir) {
    shield::shieldstore::OpLogOptions log_opts;
    log_opts.path = dir + "/wal.log";
    log_opts.group_commit_window_us = kDaemonWalWindowUs;
    wal = std::make_unique<shield::shieldstore::WriteAheadStore>(*store, *sealer, *counters,
                                                                 log_opts);
    return wal->Open();
  }
};

}  // namespace

Status RunLadder(const LadderConfig& c, MetricList* out) {
  std::filesystem::create_directories(c.work_dir);
  const uint64_t ladder_t0 = NowNs();
  auto progress = [&](const char* step) {
    std::fprintf(stderr, "ladder: %-24s at %7.2f s\n", step,
                 static_cast<double>(NowNs() - ladder_t0) / 1e9);
  };
  Ladder ladder(c);
  const size_t threads = std::max<size_t>(c.threads, 1);
  auto scaled = [&](double n) {
    return std::max<uint64_t>(16, static_cast<uint64_t>(n * c.scale));
  };
  const uint64_t lat_ops = scaled(2000);
  const uint64_t mem_ops = scaled(50000);  // per thread, in-memory rungs
  const uint64_t wal_ops = scaled(1000);   // per thread, durable rung

  double ctr_ns = 0;
  double cmac_ns = 0;
  ladder.Crypto(scaled(2000), &ctr_ns, &cmac_ns);

  progress("crypto");
  shield::sgx::EnclaveConfig enclave_config;
  enclave_config.name = "ssbench-ladder";
  shield::sgx::Enclave enclave(enclave_config);

  // store: one Store, one thread.
  RungLatency store_lat;
  double store_kops_1t = 0;
  {
    shield::shieldstore::Options options;
    options.num_buckets = kDaemonBuckets;
    shield::shieldstore::Store store(enclave, options);
    ladder.Preload(store);
    store_lat = ladder.Latency("ladder.store", "store.get", "store.set", KvTarget(store), lat_ops);
    store_kops_1t = ladder.Throughput("ladder.store_1t", {KvTarget(store)}, mem_ops);
  }

  progress("store");
  // owned / partitioned / wal / net share one node.
  Node primary(enclave, c.work_dir + "/primary");
  ladder.Preload(*primary.store);
  std::vector<Target> owned;
  std::vector<Target> facade;
  for (size_t i = 0; i < threads; ++i) {
    owned.push_back(KvTarget(primary.store->partition(i % kLadderPartitions)));
    facade.push_back(KvTarget(*primary.store));
  }
  auto owns = [&](size_t thread, const std::string& key) {
    return primary.store->PartitionOf(key) == thread % kLadderPartitions;
  };
  // Owned at one thread: route to the partition directly, bypassing the
  // facade's lock, so owned scaling compares like with like.
  shield::shieldstore::PartitionedStore& ps = *primary.store;
  const Target direct{
      [&ps](const std::string& k, const std::string& v) {
        return ps.partition(ps.PartitionOf(k)).Set(k, v);
      },
      [&ps](const std::string& k) { return ps.partition(ps.PartitionOf(k)).Get(k); }};
  const double owned_kops_1t = ladder.Throughput("ladder.owned_1t", {direct}, mem_ops);
  const double owned_kops_4t = ladder.Throughput("ladder.owned_4t", owned, mem_ops, owns);
  RungLatency part_lat = ladder.Latency("ladder.partitioned", "partitioned.get",
                                        "partitioned.set", KvTarget(*primary.store), lat_ops);
  const double part_kops_1t =
      ladder.Throughput("ladder.partitioned_1t", {facade[0]}, mem_ops);
  const double part_kops_4t = ladder.Throughput("ladder.partitioned_4t", facade, mem_ops);

  progress("owned+partitioned");
  if (Status s = primary.OpenWal(c.work_dir + "/primary"); !s.ok()) {
    return s;
  }
  RungLatency wal_lat =
      ladder.Latency("ladder.wal", "wal.get", "wal.set", KvTarget(*primary.wal), lat_ops);
  const double wal_kops_4t = ladder.Throughput(
      "ladder.wal_4t", std::vector<Target>(threads, KvTarget(*primary.wal)), wal_ops);

  progress("wal");
  shield::sgx::AttestationAuthority authority(shield::AsBytes(std::string("ssbench-ladder")));
  shield::net::ServerOptions server_opts;  // daemon defaults, ephemeral port
  server_opts.enclave_workers = kLadderPartitions;
  shield::net::Server server(enclave, *primary.wal, authority, server_opts);
  if (Status s = server.Start(); !s.ok()) {
    return s;
  }
  RungLatency net_lat;
  RungLatency net_untraced;
  {
    shield::net::Client client(authority, enclave.measurement());
    if (Status s = client.Connect(server.port()); !s.ok()) {
      return s;
    }
    Target t{[&](const std::string& k, const std::string& v) { return client.Set(k, v); },
             [&](const std::string& k) { return client.Get(k); }};
    net_untraced = ladder.Latency("ladder.net_untraced", "net.get", "net.set", t, lat_ops, false);
    net_lat = ladder.Latency("ladder.net", "net.get", "net.set", t, lat_ops);
  }

  server.Stop();
  progress("net");

  // router: a Router in front of a primary node that ships every commit to
  // a warm standby. Standby bootstrap ships the primary's keys slowly, so
  // this rung's node holds at most kRouterKeys keys.
  const uint64_t router_keys = std::min<uint64_t>(c.keys, kRouterKeys);
  Node rnode(enclave, c.work_dir + "/rprimary");
  ladder.Preload(*rnode.store, router_keys);
  Node standby_node(enclave, c.work_dir + "/standby");
  if (Status s = rnode.OpenWal(c.work_dir + "/rprimary"); !s.ok()) {
    return s;
  }
  if (Status s = standby_node.OpenWal(c.work_dir + "/standby"); !s.ok()) {
    return s;
  }
  shield::router::ReplicaNode replica(*standby_node.wal);
  shield::net::ServerOptions standby_opts;
  standby_opts.replicate_handler = [&replica](const shield::net::Request& r) {
    return replica.HandleReplicate(r);
  };
  shield::net::Server standby(enclave, *standby_node.wal, authority, standby_opts);
  shield::net::Server rserver(enclave, *rnode.wal, authority, server_opts);
  if (Status s = standby.Start(); !s.ok()) {
    return s;
  }
  if (Status s = rserver.Start(); !s.ok()) {
    return s;
  }
  shield::router::ShipperOptions ship_opts;
  ship_opts.follower_port = standby.port();
  ship_opts.epoch = 1;
  shield::router::WalShipper shipper(*rnode.wal, authority, enclave.measurement(), ship_opts);
  rnode.wal->SetReplicationSink(&shipper);
  struct Detach {
    shield::shieldstore::WriteAheadStore* wal;
    ~Detach() { wal->SetReplicationSink(nullptr); }
  } detach{rnode.wal.get()};
  const uint64_t attach_t0 = NowNs();
  if (Status s = shipper.Attach(); !s.ok()) {
    return s;
  }
  const double bootstrap_s = static_cast<double>(NowNs() - attach_t0) / 1e9;
  progress("standby bootstrap");
  RungLatency router_lat;
  {
    shield::router::RouterOptions ropts;
    ropts.probe_interval_ms = 0;
    shield::router::Router router(authority, enclave.measurement(),
                                  {{"n0", rserver.port(), standby.port()}}, ropts);
    if (Status s = router.Start(); !s.ok()) {
      return s;
    }
    Target t{[&](const std::string& k, const std::string& v) { return router.Set(k, v); },
             [&](const std::string& k) { return router.Get(k); }};
    router_lat =
        ladder.Latency("ladder.router", "router.get", "router.set", t, lat_ops, true, router_keys);
    router.Stop();
  }
  rserver.Stop();
  standby.Stop();
  progress("router");

  const double store_get = store_lat.get.PercentileUs(0.5);
  const double store_set = store_lat.set.PercentileUs(0.5);
  const double part_get = part_lat.get.PercentileUs(0.5);
  const double part_set = part_lat.set.PercentileUs(0.5);
  const double wal_get = wal_lat.get.PercentileUs(0.5);
  const double wal_set = wal_lat.set.PercentileUs(0.5);
  const double net_get = net_lat.get.PercentileUs(0.5);
  const double net_set = net_lat.set.PercentileUs(0.5);
  const double router_get = router_lat.get.PercentileUs(0.5);
  const double router_set = router_lat.set.PercentileUs(0.5);
  const double traced_rate = static_cast<double>(lat_ops) / net_lat.wall_s;
  const double untraced_rate = static_cast<double>(lat_ops) / net_untraced.wall_s;
  const uint64_t errors = store_lat.errors + part_lat.errors + wal_lat.errors + net_lat.errors +
                          net_untraced.errors + router_lat.errors;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  std::printf("ladder (%llu keys x %zu B, %zu partitions, %zu threads, %llu latency ops/rung)\n",
              static_cast<unsigned long long>(c.keys), c.value_bytes, kLadderPartitions, threads,
              static_cast<unsigned long long>(lat_ops));
  std::printf("  %-12s %12s %12s %12s %12s\n", "rung", "get p50 us", "set p50 us", "added get",
              "added set");
  auto row = [](const char* name, double get, double set, double below_get, double below_set) {
    std::printf("  %-12s %12.3f %12.3f %12.3f %12.3f\n", name, get, set, get - below_get,
                set - below_set);
  };
  row("store", store_get, store_set, 0, 0);
  row("partitioned", part_get, part_set, store_get, store_set);
  row("wal", wal_get, wal_set, part_get, part_set);
  row("net", net_get, net_set, wal_get, wal_set);
  row("router", router_get, router_set, net_get, net_set);
  std::printf("  throughput kop/s: store 1t %.1f | owned 1t %.1f 4t %.1f | facade 1t %.1f 4t %.1f "
              "| wal 4t %.2f; standby bootstrap of %llu keys %.2f s; %llu ladder op errors\n",
              store_kops_1t, owned_kops_1t, owned_kops_4t, part_kops_1t, part_kops_4t, wal_kops_4t,
              static_cast<unsigned long long>(router_keys), bootstrap_s,
              static_cast<unsigned long long>(errors));

  if (!c.trace_path.empty()) {
    const size_t written = ladder.recorder().WriteChromeJson(c.trace_path, kSpansPerThread);
    std::printf("  %zu of %zu spans written to %s\n", written, ladder.recorder().TotalSpans(),
                c.trace_path.c_str());
  }
  std::error_code ec;
  std::filesystem::remove_all(c.work_dir, ec);

  *out = {
      {"crypto.ctr_ns_per_kib", ctr_ns, "ns/KiB"},
      {"crypto.cmac_ns_per_kib", cmac_ns, "ns/KiB"},
      {"store.get_p50_us", store_get, "us"},
      {"store.set_p50_us", store_set, "us"},
      {"store.kops_4t", owned_kops_4t, "kop/s"},
      {"partitioned.get_p50_us", part_get, "us"},
      {"partitioned.kops_4t", part_kops_4t, "kop/s"},
      {"partitioned.scaling_4t", ratio(part_kops_4t, part_kops_1t), "ratio"},
      {"partitioned.owned_scaling_4t", ratio(owned_kops_4t, owned_kops_1t), "ratio"},
      {"wal.set_p50_us", wal_set, "us"},
      {"wal.kops_4t", wal_kops_4t, "kop/s"},
      {"wal.added_set_us", wal_set - part_set, "us"},
      {"net.get_p50_us", net_get, "us"},
      {"net.added_get_us", net_get - wal_get, "us"},
      {"router.set_p50_us", router_set, "us"},
      {"router.added_set_us", router_set - net_set, "us"},
      {"bench.trace_overhead", ratio(untraced_rate - traced_rate, untraced_rate), "ratio"},
      {"bench.ladder_errors", static_cast<double>(errors), "count"},
  };
  return Status::Ok();
}

}  // namespace ssbench
