// The per-node PCIe fabric: endpoints, address routing, and the
// posted-write / split-read transaction machinery.
//
// Topology is a single root complex (host memory controller + CPU) with
// one duplex link per endpoint (GPU, NIC). A transaction from endpoint A
// to endpoint B crosses A's upstream link and B's downstream link; a
// transaction to host DRAM crosses only A's upstream link plus the memory
// controller latency. The host CPU issues from the root, so its MMIO
// writes cross only the target's downstream link.
//
// Reads are split transactions: a request TLP travels to the target, the
// target serves it (possibly queuing - see GpuP2pReadServer), and
// completion TLPs carry the data back. Writes are posted: they occupy the
// wire and complete at the target without a response.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/payload.h"
#include "common/status.h"
#include "common/units.h"
#include "mem/address_map.h"
#include "mem/memory_domain.h"
#include "pcie/link.h"
#include "sim/simulation.h"

namespace pg::pcie {

using mem::Addr;

/// Devices implement this to receive inbound fabric traffic.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// A posted write has arrived. The device applies side effects
  /// (BAR doorbell kick, DRAM store + cache invalidation, ...).
  virtual void inbound_write(Addr addr, std::span<const std::uint8_t> data) = 0;

  /// A read request has arrived at `arrival`. The device fills `out`
  /// (sampling its state now) and returns the time at which the data is
  /// ready to leave, >= arrival. Queuing inside the device (e.g. the GPU's
  /// peer-to-peer read unit) is expressed by returning a later time.
  virtual SimTime inbound_read(SimTime arrival, Addr addr,
                               std::span<std::uint8_t> out) = 0;
};

using EndpointId = std::uint32_t;
/// The root complex: host CPU + memory controller.
constexpr EndpointId kRootComplex = 0;

struct FabricConfig {
  SimDuration host_dram_latency = nanoseconds(90);
  /// Extra turnaround charged inside every endpoint for request decode /
  /// completion assembly (covers on-chip queues we do not model).
  SimDuration endpoint_turnaround = nanoseconds(60);
};

class Fabric {
 public:
  Fabric(sim::Simulation& sim, mem::MemoryDomain& memory, FabricConfig cfg);

  /// Attaches a device behind a fresh duplex link; returns its id.
  EndpointId attach(std::string name, Endpoint* device, LinkConfig link_cfg);

  /// Routes [base, base+size) to the given endpoint (BARs; the GPU claims
  /// its DRAM aperture so peers reach device memory through it).
  void claim_range(EndpointId id, Addr base, std::uint64_t size);

  /// Posted write of `data` to `addr`, issued by `src` (kRootComplex for
  /// the CPU). `on_delivered`, if given, runs when the write lands at the
  /// target (simulated time has advanced).
  void write(EndpointId src, Addr addr, std::vector<std::uint8_t> data,
             std::function<void()> on_delivered = {});

  /// Posted write of a payload window. The DMA engine uses this to
  /// chunk one payload into many TLPs that all alias a single buffer
  /// instead of copying each piece; the bytes are copied once, into the
  /// target, when the write lands. Timing is identical to the vector
  /// overload.
  void write_shared(EndpointId src, Addr addr, Payload payload,
                    std::function<void()> on_delivered = {});

  /// Split read of `len` bytes at `addr`, issued by `src`. `on_data` runs
  /// when the completion arrives back at the issuer.
  void read(EndpointId src, Addr addr, std::uint32_t len,
            std::function<void(std::vector<std::uint8_t>)> on_data);

  /// Split read into caller-owned storage: the target's bytes are
  /// sampled into [out, out+len) when the request is served, and
  /// `on_done` runs when the completion arrives back at the issuer.
  /// `out` must stay valid until then. Timing and events are identical
  /// to the vector overload.
  void read_into(EndpointId src, Addr addr, std::uint32_t len,
                 std::uint8_t* out, std::function<void()> on_done);

  /// Immediate, zero-time access to host DRAM for the CPU (the CPU's own
  /// loads/stores do not cross the fabric; their cost lives in the CPU
  /// model).
  mem::MemoryDomain& memory() { return memory_; }

  sim::Simulation& sim() { return sim_; }

  /// Wire statistics for tests and the ablation benches.
  std::uint64_t upstream_bytes(EndpointId id) const;
  std::uint64_t downstream_bytes(EndpointId id) const;
  std::uint64_t transactions() const { return transactions_; }

 private:
  struct Port {
    std::string name;
    Endpoint* device = nullptr;  // null for the root complex
    std::unique_ptr<Link> up;    // endpoint -> root
    std::unique_ptr<Link> down;  // root -> endpoint
  };

  struct Claim {
    Addr base;
    std::uint64_t size;
    EndpointId owner;
  };

  /// Endpoint owning `addr`, or kRootComplex when it is host DRAM.
  /// Returns false when the address routes nowhere.
  bool route(Addr addr, EndpointId& out) const;

  /// Where a split read's bytes live: `open(len)`, called at the serve
  /// instant, returns the completion event, whose `bytes()` the target
  /// fills and which delivers them when the completion TLPs arrive.
  struct VectorSink;
  struct CallerSink;
  template <typename Sink>
  struct ReadArrival;
  struct WriteDelivery;

  /// The one split-read transaction behind both read overloads.
  template <typename Sink>
  void split_read(EndpointId src, Addr addr, std::uint32_t len, Sink sink);

  /// Serves a read at the routing target, returning data-ready time.
  SimTime serve_read(EndpointId target, SimTime arrival, Addr addr,
                     std::span<std::uint8_t> out);

  /// Shared front half of the posted-write overloads: routes `addr`,
  /// occupies the wire for `len` bytes, and emits observability records.
  /// Returns the delivery time, or false when the address routes nowhere.
  bool post_write_timing(EndpointId src, Addr addr, std::uint64_t len,
                         EndpointId& target, SimTime& delivery);

  /// Applies a write at the routing target.
  void apply_write(EndpointId target, Addr addr,
                   std::span<const std::uint8_t> data);

  sim::Simulation& sim_;
  mem::MemoryDomain& memory_;
  FabricConfig cfg_;
  std::vector<Port> ports_;
  std::vector<Claim> claims_;
  std::uint64_t transactions_ = 0;
};

}  // namespace pg::pcie
