// Layer probes: host cost of the simulator's hot public functions,
// called from outside with the argument shapes the workloads use.
// Multiplied by a workload's exact work counts they split its wall time
// by layer without a sampling profiler.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

struct ProbeResults {
  double fill_ns_per_byte = 0;     // putget::fill_pattern
  double l2_invalidate_ns = 0;     // gpu::L2Cache::invalidate_range, 1 chunk
  double pcie_ns_per_read = 0;     // pcie::Fabric::read, 8 B, to completion
  double gpu_ns_per_instr = 0;     // gpu::Gpu::launch of a device poll loop
  double sim_ns_per_event = 0;     // sim::Simulation schedule + dispatch
  double sparse_mb_per_s = 0;      // mem::SparseMemory u64 stream
};

/// Runs every probe; `payload_sizes` are the workload's payload sizes
/// (fill_pattern is timed at those sizes). Each figure is the median of
/// several repetitions.
ProbeResults run_probes(const std::vector<std::uint32_t>& payload_sizes);

}  // namespace perfbench
