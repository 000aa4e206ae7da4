// Segmenting DMA engine, as embedded in each NIC model.
//
// Bulk transfers are split into read-request-sized segments kept in a
// window of outstanding requests, so request issue, target service and
// completion return overlap: steady-state throughput becomes the minimum
// of the path's stages instead of their sum. This is what lets the NIC
// stream at (almost) link rate from host memory while the same engine is
// throttled by the GPU's peer read server when sourcing from GPU memory.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/payload.h"
#include "mem/address_map.h"
#include "obs/flow.h"
#include "pcie/fabric.h"
#include "sim/simulation.h"

namespace pg::pcie {

struct DmaConfig {
  std::uint32_t read_request_size = 4096;  // PCIe max read request
  std::uint32_t max_outstanding_reads = 8;
  std::uint32_t write_chunk_size = 4096;   // descriptor-side segmentation
};

class DmaEngine {
 public:
  DmaEngine(sim::Simulation& sim, Fabric& fabric, EndpointId self,
            DmaConfig cfg)
      : sim_(sim), fabric_(fabric), self_(self), cfg_(cfg) {}

  /// Gathers [addr, addr+len) into one buffer and hands it to `on_done`
  /// once the final completion arrives. Each chunk's bytes are copied
  /// into the buffer when its request is served. A nonzero `flow`
  /// annotates the completed transfer with that message lifecycle
  /// (trace-only).
  void read(mem::Addr addr, std::uint64_t len,
            std::function<void(Payload)> on_done, obs::FlowId flow = 0);

  /// Scatters `data` to [addr, addr+size); `on_done` runs when the last
  /// byte has landed (posted writes, so this is target-arrival time).
  /// Every chunk is a window onto `data`'s buffer. A nonzero `flow`
  /// annotates the transfer (trace-only).
  void write(mem::Addr addr, Payload data, std::function<void()> on_done,
             obs::FlowId flow = 0);

  std::uint64_t reads_issued() const { return reads_issued_; }
  std::uint64_t writes_issued() const { return writes_issued_; }

 private:
  struct ReadJob {
    DmaEngine* engine;               // owner; lets chunk callbacks stay small
    mem::Addr base;
    std::uint64_t length;
    std::shared_ptr<std::uint8_t[]> buffer;  // uninitialised; chunks land in place
    std::uint64_t next_offset = 0;   // next segment to request
    std::uint64_t outstanding = 0;   // requests in flight
    std::uint64_t received = 0;      // bytes completed
    SimTime t_start = 0;             // issue time (observability span)
    obs::FlowId flow = 0;            // lifecycle annotation, trace-only
    std::function<void(Payload)> on_done;
  };

  /// The job is owned by its in-flight chunk callbacks collectively: the
  /// callback that completes the final byte runs on_done and frees it.
  void pump_reads(ReadJob* job);

  sim::Simulation& sim_;
  Fabric& fabric_;
  EndpointId self_;
  DmaConfig cfg_;
  std::uint64_t reads_issued_ = 0;
  std::uint64_t writes_issued_ = 0;
};

}  // namespace pg::pcie
