#include "pcie/fabric.h"

#include <cassert>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pg::pcie {

Fabric::Fabric(sim::Simulation& sim, mem::MemoryDomain& memory,
               FabricConfig cfg)
    : sim_(sim), memory_(memory), cfg_(cfg) {
  // Port 0 is the root complex; it has no link of its own (its latency is
  // part of each endpoint's up/down link traversal).
  ports_.push_back(Port{"root", nullptr, nullptr, nullptr});
}

EndpointId Fabric::attach(std::string name, Endpoint* device,
                          LinkConfig link_cfg) {
  assert(device != nullptr);
  Port port;
  port.name = std::move(name);
  port.device = device;
  port.up = std::make_unique<Link>(link_cfg);
  port.down = std::make_unique<Link>(link_cfg);
  ports_.push_back(std::move(port));
  return static_cast<EndpointId>(ports_.size() - 1);
}

void Fabric::claim_range(EndpointId id, Addr base, std::uint64_t size) {
  assert(id > 0 && id < ports_.size());
  claims_.push_back(Claim{base, size, id});
}

bool Fabric::route(Addr addr, EndpointId& out) const {
  for (const Claim& c : claims_) {
    if (addr >= c.base && addr < c.base + c.size) {
      out = c.owner;
      return true;
    }
  }
  if (mem::AddressMap::in_host_dram(addr)) {
    out = kRootComplex;
    return true;
  }
  return false;
}

SimTime Fabric::serve_read(EndpointId target, SimTime arrival, Addr addr,
                           std::span<std::uint8_t> out) {
  if (target == kRootComplex) {
    memory_.read(addr, out);
    return arrival + cfg_.host_dram_latency;
  }
  Port& port = ports_[target];
  return port.device->inbound_read(arrival, addr, out) +
         cfg_.endpoint_turnaround;
}

void Fabric::apply_write(EndpointId target, Addr addr,
                         std::span<const std::uint8_t> data) {
  if (target == kRootComplex) {
    memory_.write(addr, data);
    return;
  }
  ports_[target].device->inbound_write(addr, data);
}

bool Fabric::post_write_timing(EndpointId src, Addr addr, std::uint64_t len,
                               EndpointId& target, SimTime& delivery) {
  target = kRootComplex;
  if (!route(addr, target)) {
    PG_ERROR("pcie", "write to unrouted address 0x%llx",
             static_cast<unsigned long long>(addr));
    assert(false && "pcie write to unrouted address");
    return false;
  }
  ++transactions_;
  const SimTime now = sim_.now();
  // Upstream traversal (issuer side), skipped for the root complex.
  SimTime t = now;
  if (src != kRootComplex) {
    t = ports_[src].up->occupy(now, len);
  }
  // Downstream traversal (target side), skipped for host DRAM.
  if (target != kRootComplex) {
    t = ports_[target].down->occupy(t, len);
  } else {
    t += cfg_.host_dram_latency;
  }
  if (obs::metrics()) {
    obs::count("pcie.write_tlps");
    obs::observe("pcie.write_ns",
                 static_cast<std::uint64_t>(to_ns(t - now)));
  }
  if (obs::enabled()) {
    obs::span("pcie", "tlp", "write", now, t,
              {{"addr", addr},
               {"bytes", len},
               {"src", ports_[src].name},
               {"dst", ports_[target].name}});
  }
  delivery = t;
  return true;
}

void Fabric::write(EndpointId src, Addr addr, std::vector<std::uint8_t> data,
                   std::function<void()> on_delivered) {
  EndpointId target = kRootComplex;
  SimTime t = 0;
  if (!post_write_timing(src, addr, data.size(), target, t)) return;
  sim_.schedule_at(
      t, [this, target, addr, data = std::move(data),
          cb = std::move(on_delivered)]() {
        apply_write(target, addr, data);
        if (cb) cb();
      });
}

// The DMA path's write: the delivery carries a window onto the
// payload buffer, and the bytes are copied only into the target.
struct Fabric::WriteDelivery {
  Fabric* fabric;
  Addr addr;
  EndpointId target;
  Payload payload;
  std::function<void()> on_delivered;

  void operator()() {
    fabric->apply_write(target, addr, payload.span());
    if (on_delivered) on_delivered();
  }
};

void Fabric::write_shared(EndpointId src, Addr addr, Payload payload,
                          std::function<void()> on_delivered) {
  static_assert(sim::InlineFn::stores_inline<WriteDelivery>(),
                "a write delivery must not heap-allocate per TLP");
  EndpointId target = kRootComplex;
  SimTime t = 0;
  if (!post_write_timing(src, addr, payload.size(), target, t)) return;
  sim_.schedule_at(t, WriteDelivery{this, addr, target, std::move(payload),
                                    std::move(on_delivered)});
}

// Vector reads (CPU and GPU loads): the completion owns a buffer that is
// allocated when the request is served.
struct Fabric::VectorSink {
  std::function<void(std::vector<std::uint8_t>)> on_data;

  struct Completion {
    std::vector<std::uint8_t> data;
    std::function<void(std::vector<std::uint8_t>)> on_data;

    std::span<std::uint8_t> bytes() { return data; }
    void operator()() { on_data(std::move(data)); }
  };
  Completion open(std::uint32_t len) {
    return Completion{std::vector<std::uint8_t>(len), std::move(on_data)};
  }
};

// Reads into caller-owned storage (the DMA engine's payload buffer).
struct Fabric::CallerSink {
  std::uint8_t* out;
  std::function<void()> on_done;

  struct Completion {
    std::span<std::uint8_t> out;
    std::function<void()> on_done;

    std::span<std::uint8_t> bytes() const { return out; }
    void operator()() { on_done(); }
  };
  Completion open(std::uint32_t len) {
    return Completion{{out, len}, std::move(on_done)};
  }
};

// The request TLP's arrival at the target. Data is sampled here, when
// the request is served, so writes landing before then are observed.
template <typename Sink>
struct Fabric::ReadArrival {
  Fabric* fabric;
  Addr addr;
  SimTime t_issue;
  EndpointId src;
  EndpointId target;
  std::uint32_t len;
  Sink sink;

  void operator()() {
    Fabric& f = *fabric;
    auto done = sink.open(len);
    const SimTime ready = f.serve_read(target, f.sim_.now(), addr, done.bytes());
    // Completion path: target up-link, then issuer down-link.
    SimTime back = ready;
    if (target != kRootComplex) {
      back = f.ports_[target].up->occupy(ready, len);
    }
    if (src != kRootComplex) {
      back = f.ports_[src].down->occupy(back, len);
    }
    if (obs::metrics()) {
      obs::count("pcie.read_tlps");
      obs::observe("pcie.read_ns",
                   static_cast<std::uint64_t>(to_ns(back - t_issue)));
    }
    if (obs::enabled()) {
      obs::span("pcie", "tlp", "read", t_issue, back,
                {{"addr", addr},
                 {"bytes", len},
                 {"src", f.ports_[src].name},
                 {"dst", f.ports_[target].name}});
    }
    f.sim_.schedule_at(back, std::move(done));
  }
};

template <typename Sink>
void Fabric::split_read(EndpointId src, Addr addr, std::uint32_t len,
                        Sink sink) {
  static_assert(sim::InlineFn::stores_inline<ReadArrival<Sink>>(),
                "a read arrival must not heap-allocate per TLP");
  static_assert(
      sim::InlineFn::stores_inline<decltype(sink.open(len))>(),
      "a read completion must not heap-allocate per TLP");
  EndpointId target = kRootComplex;
  if (!route(addr, target)) {
    PG_ERROR("pcie", "read of unrouted address 0x%llx",
             static_cast<unsigned long long>(addr));
    assert(false && "pcie read of unrouted address");
    return;
  }
  ++transactions_;
  const SimTime now = sim_.now();
  // Request TLP: issuer up-link, then target down-link.
  SimTime arrival = now;
  if (src != kRootComplex) {
    arrival = ports_[src].up->occupy(now, 0);
  }
  if (target != kRootComplex) {
    arrival = ports_[target].down->occupy(arrival, 0);
  }
  sim_.schedule_at(arrival, ReadArrival<Sink>{this, addr, now, src, target,
                                              len, std::move(sink)});
}

void Fabric::read(EndpointId src, Addr addr, std::uint32_t len,
                  std::function<void(std::vector<std::uint8_t>)> on_data) {
  split_read(src, addr, len, VectorSink{std::move(on_data)});
}

void Fabric::read_into(EndpointId src, Addr addr, std::uint32_t len,
                       std::uint8_t* out, std::function<void()> on_done) {
  split_read(src, addr, len, CallerSink{out, std::move(on_done)});
}

std::uint64_t Fabric::upstream_bytes(EndpointId id) const {
  assert(id > 0 && id < ports_.size());
  return ports_[id].up->bytes_carried();
}

std::uint64_t Fabric::downstream_bytes(EndpointId id) const {
  assert(id > 0 && id < ports_.size());
  return ports_[id].down->bytes_carried();
}

}  // namespace pg::pcie
