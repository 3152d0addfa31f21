// The traced layer ladder: replays one workload's op stream in-process
// through each layer's public entry point, bottom to top, with a span
// around every call, and reports each rung's latency, throughput and the
// cost it adds over the rung below.
#ifndef SSBENCH_SRC_LADDER_H_
#define SSBENCH_SRC_LADDER_H_

#include <string>

#include "src/common/status.h"
#include "src/workload/generator.h"
#include "ssbench/src/stats.h"

namespace ssbench {

struct LadderConfig {
  shield::workload::WorkloadConfig mix;
  uint64_t keys = 0;
  size_t value_bytes = 0;
  size_t key_bytes = 16;
  uint64_t seed = 1;
  size_t threads = 4;
  double scale = 1.0;
  std::string work_dir;    // durable rungs put their logs here
  std::string trace_path;  // Chrome trace_event JSON output
};

shield::Status RunLadder(const LadderConfig& config, MetricList* out);

}  // namespace ssbench

#endif  // SSBENCH_SRC_LADDER_H_
