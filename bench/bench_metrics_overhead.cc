// Metrics overhead gate: networked throughput with the obs layer as
// compiled into THIS binary. check.sh builds the tree twice — once with
// -DSHIELD_METRICS=ON (always-on recording, the default) and once with OFF
// (every Inc/Record/Scope a no-op) — runs both flavours of this bench
// on the same workload, and gates the ratio: recording must cost < 3%
// throughput. The final stdout line is machine-parseable:
//
//   RESULT kops <value>
//
// Configuration leans cheap-op/hot-path (plaintext sessions, read-heavy,
// volatile store) so metric recording is the largest it can be relative to
// total work — an honest worst case for the gate.
#include <string>

#include "bench/netload.h"
#include "src/net/server.h"
#include "src/shieldstore/partitioned.h"

namespace shield::bench {
namespace {

int Run(double seconds) {
  sgx::Enclave enclave(BenchEnclave());
  const sgx::AttestationAuthority authority(AsBytes("metrics-bench"));

  shieldstore::Options options;
  options.num_buckets = 1 << 14;
  shieldstore::PartitionedStore store(enclave, options, 4);

  const workload::DataSet ds = workload::SmallDataSet();
  const size_t num_keys = Scaled(4'000);
  if (!Preload(store, num_keys, ds)) {
    std::fprintf(stderr, "preload failed\n");
    return 2;
  }

  net::ServerOptions server_options;
  server_options.port = 0;
  server_options.encrypt = false;
  server_options.enclave_workers = 4;
  net::Server server(enclave, store, authority, server_options);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return 2;
  }

  NetLoadOptions load;
  load.connections = 4;
  load.pipeline_depth = 16;
  load.seconds = seconds;
  load.encrypt = false;
  const workload::WorkloadConfig config = workload::RD95_U();

  // Warmup round (JIT-free C++, but populates caches and the EPC resident
  // set), then the measured round.
  NetLoadOptions warmup = load;
  warmup.seconds = std::min(seconds * 0.25, 0.1);
  (void)RunNetworkLoad(server.port(), authority, enclave.measurement(), config, ds, num_keys,
                       warmup);
  const double kops = RunNetworkLoad(server.port(), authority, enclave.measurement(), config,
                                     ds, num_keys, load);

  // What the recording measured about itself (all-zero in the no-op build);
  // the quantile columns land in BENCH_metrics_overhead.json via the table.
  const obs::MetricsSnapshot snap = server.BuildStatsSnapshot();
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  if (const obs::HistogramData* h = snap.Histogram("net.latency.get");
      h != nullptr && h->count > 0) {
    p50 = h->Quantile(0.50) / 1e3;
    p95 = h->Quantile(0.95) / 1e3;
    p99 = h->Quantile(0.99) / 1e3;
  }

  Table table(std::string("Metrics overhead probe (obs layer ") +
              (SHIELD_OBS_ENABLED ? "COMPILED IN" : "COMPILED OUT") + ")");
  table.Header({"connections", "depth", "workload", "Kop/s", "get p50 us", "get p95 us",
                "get p99 us"});
  table.Row({std::to_string(load.connections), std::to_string(load.pipeline_depth), "RD95_U",
             Fmt(kops), Fmt(p50), Fmt(p95), Fmt(p99)});

  server.Stop();
  std::printf("RESULT kops %.2f\n", kops);
  return 0;
}

}  // namespace
}  // namespace shield::bench

int main(int argc, char** argv) {
  double seconds = 1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      seconds = 0.3;
    } else if (arg == "--seconds" && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: bench_metrics_overhead [--smoke] [--seconds S]\n");
      return 2;
    }
  }
  return shield::bench::Run(seconds);
}
