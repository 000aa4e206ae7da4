// Result structures shared by every experiment driver, independent of
// the fabric backend. The generic driver in experiments.h fills these;
// the per-backend wrappers (extoll_experiments.h / ib_experiments.h)
// and the figure benches consume them.
#pragma once

#include <cstdint>

#include "gpu/counters.h"

namespace pg::putget {

struct PingPongResult {
  double half_rtt_us = 0;       // reported latency (RTT/2)
  double post_sum_us = 0;       // initiator: time generating/posting WRs
  double poll_sum_us = 0;       // initiator: time polling for completion
  std::uint32_t iterations = 0;
  bool payload_ok = false;
  gpu::PerfCounters gpu0;       // initiator-GPU counter delta (Table I)
  /// Total events the cluster simulation ever scheduled: a determinism
  /// fingerprint - two runs of the same experiment must agree exactly.
  std::uint64_t events_scheduled = 0;
  /// Host-only: poll probes run as events vs charged without running
  /// (sim::Simulation::probes_skipped). Not part of any fingerprint.
  std::uint64_t probes_executed = 0;
  std::uint64_t probes_skipped = 0;
};

struct BandwidthResult {
  double mb_per_s = 0;
  std::uint64_t bytes = 0;
  bool payload_ok = false;
};

struct MessageRateResult {
  double msgs_per_s = 0;
  std::uint64_t messages = 0;
};

/// Concurrency/control variants for the message-rate experiments
/// (Fig 2 / Fig 5).
enum class RateVariant {
  kBlocks,          // dev2dev-blocks
  kKernels,         // dev2dev-kernels
  kAssisted,        // dev2dev-assisted
  kHostControlled,  // dev2dev-hostControlled
};
const char* rate_variant_name(RateVariant v);

}  // namespace pg::putget
