#include "nic/extoll/rma_unit.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pg::extoll {

using mem::Addr;
using mem::AddressMap;

// ---------------------------------------------------------------------------
// Frame codec.

net::Frame ExtollNic::Frame::encode() const {
  net::Frame wire{std::vector<std::uint8_t>(32), payload};
  std::uint8_t* h = wire.header.data();
  h[0] = static_cast<std::uint8_t>(kind);
  h[1] = port;
  h[2] = static_cast<std::uint8_t>((last ? 1 : 0) | (notify_completer ? 2 : 0));
  h[3] = 0;
  std::memcpy(h + 4, &total_size, 4);
  std::memcpy(h + 8, &offset, 8);
  std::memcpy(h + 16, &src_nla, 8);
  std::memcpy(h + 24, &dst_nla, 8);
  return wire;
}

Result<ExtollNic::Frame> ExtollNic::Frame::decode(const net::Frame& wire) {
  if (wire.header.size() < 32) {
    return invalid_argument("EXTOLL frame shorter than header");
  }
  const std::uint8_t* h = wire.header.data();
  Frame f;
  f.kind = static_cast<Kind>(h[0]);
  f.port = h[1];
  f.last = (h[2] & 1) != 0;
  f.notify_completer = (h[2] & 2) != 0;
  std::memcpy(&f.total_size, h + 4, 4);
  std::memcpy(&f.offset, h + 8, 8);
  std::memcpy(&f.src_nla, h + 16, 8);
  std::memcpy(&f.dst_nla, h + 24, 8);
  f.payload = wire.body;
  return f;
}

// ---------------------------------------------------------------------------
// Construction / wiring.

ExtollNic::ExtollNic(sim::Simulation& sim, pcie::Fabric& fabric,
                     mem::MemoryDomain& memory, mem::BumpAllocator& host_arena,
                     ExtollConfig cfg, std::string name)
    : sim_(sim),
      fabric_(fabric),
      memory_(memory),
      cfg_(cfg),
      name_(std::move(name)) {
  endpoint_id_ = fabric_.attach(name_, this, cfg_.pcie_link);
  fabric_.claim_range(endpoint_id_, AddressMap::kExtollBarBase,
                      AddressMap::kExtollBarSize);
  dma_ = std::make_unique<pcie::DmaEngine>(sim_, fabric_, endpoint_id_,
                                           cfg_.dma);
  ports_.resize(cfg_.num_ports);
  // The driver pre-allocates notification structures in kernel memory at
  // load time; ports get theirs assigned at open_port.
  for (PortState& port : ports_) {
    for (NotifQueue* q : {&port.req_queue, &port.cmp_queue}) {
      q->entries = cfg_.notif_queue_entries;
      q->slot_base =
          host_arena.alloc(q->entries * kNotificationBytes, 64);
      q->rp_addr = host_arena.alloc(8, 8);
    }
  }
}

ExtollNic::~ExtollNic() = default;

void ExtollNic::connect(net::NetworkLink* link, int side) {
  if (link_ == nullptr) {
    link_ = link;
    link_side_ = side;
  }
  link->attach(side, [this, link, side](net::Frame wire, net::FrameMeta meta) {
    on_frame(link, side, std::move(wire), meta);
  });
}

Status ExtollNic::add_route(int dst_node, net::NetworkLink* link, int side) {
  for (const auto& [node, route] : routes_) {
    if (node == dst_node) {
      return invalid_argument(
          name_ + ": duplicate route for node " + std::to_string(dst_node) +
          " (the route pass must resolve each destination to one next hop)");
    }
  }
  routes_.push_back({dst_node, Route{link, side}});
  return Status::ok();
}

ExtollNic::Route ExtollNic::route_for(std::int32_t dst_node) const {
  if (dst_node >= 0) {
    for (const auto& [node, route] : routes_) {
      if (node == dst_node) return route;
    }
  }
  return Route{link_, link_side_};
}

SimDuration ExtollNic::core_cycles(std::uint32_t n) const {
  const double period_ps = 1e12 / cfg_.core_clock_hz;
  return static_cast<SimDuration>(period_ps * n);
}

// ---------------------------------------------------------------------------
// Driver-level API.

Result<PortInfo> ExtollNic::open_port(std::uint32_t port) {
  if (port >= cfg_.num_ports) {
    return out_of_range("open_port: port id beyond NIC capability");
  }
  PortState& state = ports_[port];
  if (state.opened) {
    return already_exists("open_port: port already open");
  }
  state.opened = true;
  PortInfo info;
  info.port = port;
  info.requester_page =
      AddressMap::kExtollBarBase + port * kRequesterPageSize;
  info.req_queue_base = state.req_queue.slot_base;
  info.req_rp_addr = state.req_queue.rp_addr;
  info.cmp_queue_base = state.cmp_queue.slot_base;
  info.cmp_rp_addr = state.cmp_queue.rp_addr;
  info.queue_entries = cfg_.notif_queue_entries;
  return info;
}

Result<Nla> ExtollNic::register_memory(Addr base, std::uint64_t length,
                                       mem::Access access) {
  return atu_.register_region(base, length, access);
}

Status ExtollNic::deregister_memory(Nla nla) { return atu_.deregister(nla); }

Status ExtollNic::relocate_notification_queues(
    std::uint32_t port, Addr req_base, Addr req_rp, Addr cmp_base,
    Addr cmp_rp, std::uint32_t entries) {
  if (port >= cfg_.num_ports || !ports_[port].opened) {
    return not_found("relocate: port not open");
  }
  if (entries == 0 || !is_power_of_two(entries)) {
    return invalid_argument("relocate: entries must be a power of two");
  }
  if (!memory_.backed(req_base, entries * kNotificationBytes) ||
      !memory_.backed(cmp_base, entries * kNotificationBytes) ||
      !memory_.backed(req_rp, 4) || !memory_.backed(cmp_rp, 4)) {
    return invalid_argument("relocate: queues must be DRAM-backed");
  }
  PortState& state = ports_[port];
  if (state.gated) {
    return failed_precondition("relocate: WR in flight on this port");
  }
  state.req_queue = NotifQueue{req_base, req_rp, entries, 0, {}};
  state.cmp_queue = NotifQueue{cmp_base, cmp_rp, entries, 0, {}};
  return Status::ok();
}

void ExtollNic::post_work_request(const WorkRequest& wr) {
  if (wr.port >= cfg_.num_ports || !ports_[wr.port].opened) {
    ++protocol_violations_;
    PG_WARN("extoll", "%s: WR to closed port %u", name_.c_str(), wr.port);
    return;
  }
  if (wr.size == 0 ||
      (wr.cmd != RmaCmd::kPut && wr.cmd != RmaCmd::kGet)) {
    ++protocol_violations_;
    PG_WARN("extoll", "%s: malformed WR on port %u", name_.c_str(), wr.port);
    return;
  }
  PortState& port = ports_[wr.port];
  if (port.gated) {
    // Software posted a second WR before the requester freed the page.
    ++protocol_violations_;
    PG_WARN("extoll", "%s: WR posted to gated port %u", name_.c_str(),
            wr.port);
    return;
  }
  port.gated = true;
  port.wr_posted_at = sim_.now();
  // The poster queued this WR's lifecycle under the port's requester
  // page (host drivers push before their MMIO writes; GPU-built WRs are
  // minted at the first staging write). Accepting the WR ends the post
  // stage. Direct callers that queued nothing leave flow == 0.
  port.flow = obs::flow_pop(obs::flow_key(
      &fabric_, AddressMap::kExtollBarBase + wr.port * kRequesterPageSize));
  obs::flow_stage(port.flow, name_.c_str(), "post", sim_.now());
  if (obs::metrics()) {
    obs::count(wr.cmd == RmaCmd::kPut ? "extoll.puts_posted"
                                      : "extoll.gets_posted");
  }
  if (obs::enabled()) {
    obs::instant(name_.c_str(), "rma", "wr-posted", sim_.now(),
                 {{"port", wr.port},
                  {"cmd", wr.cmd == RmaCmd::kPut ? "put" : "get"},
                  {"size", wr.size}});
  }
  requester_fifo_.push_back(wr);
  pump_requester();
}

// ---------------------------------------------------------------------------
// Requester.

void ExtollNic::pump_requester() {
  if (requester_busy_ || requester_fifo_.empty()) return;
  requester_busy_ = true;
  const WorkRequest wr = requester_fifo_.front();
  requester_fifo_.pop_front();
  sim_.schedule(core_cycles(cfg_.wr_decode_cycles), [this, wr] {
    // Decode complete; the requester can accept the next descriptor while
    // this one's payload streams.
    requester_busy_ = false;
    if (wr.cmd == RmaCmd::kPut) {
      auto src = atu_.translate(wr.src_nla, wr.size, mem::Access::kRead);
      if (!src.is_ok()) {
        ++translation_faults_;
        PG_WARN("extoll", "%s: put source translation fault", name_.c_str());
        requester_finished(wr);
      } else {
        execute_put(wr, *src);
      }
    } else {
      execute_get(wr);
    }
    pump_requester();
  });
}

void ExtollNic::execute_put(const WorkRequest& wr, Addr src_addr) {
  // Stream the payload in segments: DMA-pull a segment, push it through
  // the 64-bit core datapath, hand it to the link. The pull of segment
  // k+1 overlaps the push of segment k (the hardware streams), so a
  // single large put approaches min(pull rate, core rate, link rate)
  // instead of their serial sum. Segment reads complete in issue order
  // (FIFO fabric), so wire order is preserved.
  struct Job {
    WorkRequest wr;
    Addr src;
    Route route;
    obs::FlowId flow = 0;
    std::uint64_t issued = 0;  // bytes whose DMA pull has been started
    std::function<void()> step;
  };
  // Every segment frame carries the routing metadata (each is a
  // separate frame on the wire, so each must steer at relays).
  auto job = std::make_shared<Job>();
  job->wr = wr;
  job->src = src_addr;
  job->route = route_for(wr.dst_node);
  job->flow = ports_[wr.port].flow;
  job->step = [this, job] {
    const std::uint64_t offset = job->issued;
    const std::uint64_t remaining = job->wr.size - offset;
    const std::uint32_t seg = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cfg_.segment_bytes, remaining));
    job->issued += seg;
    const bool last = job->issued == job->wr.size;
    dma_->read(
        job->src + offset, seg,
        [this, job, seg, offset, last](Payload data) {
          // Overlap: pull the next segment while this one drains
          // through the datapath.
          if (!last) {
            job->step();
          }
          const SimTime start = std::max(sim_.now(), datapath_busy_until_);
          datapath_busy_until_ = start + core_rate().transfer_time(seg);
          sim_.schedule_at(
              datapath_busy_until_,
              [this, job, offset, last, data = std::move(data)]() mutable {
                Frame f;
                f.kind = Frame::Kind::kPutSegment;
                f.port = job->wr.port;
                f.total_size = job->wr.size;
                f.offset = offset;
                f.src_nla = job->wr.src_nla;
                f.dst_nla = job->wr.dst_nla;
                f.notify_completer = job->wr.notify_completer;
                f.last = last;
                f.payload = std::move(data);
                // The last segment carries the lifecycle across the
                // wire; requester_finished (same instant) closes the
                // nic_fetch stage, so wire begins exactly here.
                originate(job->route, f, job->wr.dst_node,
                          last ? job->flow : 0);
                if (last) {
                  requester_finished(job->wr);
                  job->step = nullptr;  // break the cycle
                }
              });
        },
        offset == 0 ? job->flow : 0);
  };
  job->step();
}

void ExtollNic::execute_get(const WorkRequest& wr) {
  Frame f;
  f.kind = Frame::Kind::kGetRequest;
  f.port = wr.port;
  f.total_size = wr.size;
  f.src_nla = wr.src_nla;  // remote side's source
  f.dst_nla = wr.dst_nla;  // our local destination
  f.notify_completer = wr.notify_completer;
  f.last = true;
  originate(route_for(wr.dst_node), f, wr.dst_node, ports_[wr.port].flow);
  requester_finished(wr);
}

void ExtollNic::originate(const Route& route, const Frame& f,
                          std::int32_t dst_node, obs::FlowId flow) {
  assert(route.link && "EXTOLL NIC not connected");
  net::FrameMeta meta;
  if (dst_node >= 0) meta.dst_node = static_cast<std::int16_t>(dst_node);
  if (node_id_ >= 0) meta.src_node = static_cast<std::int16_t>(node_id_);
  net::Frame wire = f.encode();
  ++totals_.frames_originated;
  totals_.bytes_originated += wire.size();
  route.link->send(route.side, std::move(wire), flow, meta);
}

void ExtollNic::requester_finished(const WorkRequest& wr) {
  PortState& port = ports_[wr.port];
  port.gated = false;  // the requester page can take the next WR
  // Decode + payload pull + datapath drain: the NIC is done touching
  // this message locally (its wire/remote stages continue elsewhere).
  obs::flow_stage(port.flow, name_.c_str(), "nic_fetch", sim_.now());
  if (obs::metrics()) {
    obs::observe("extoll.wr_requester_ns",
                 static_cast<std::uint64_t>(
                     to_ns(sim_.now() - port.wr_posted_at)));
  }
  if (obs::enabled()) {
    obs::span(name_.c_str(), "rma", "wr-requester", port.wr_posted_at,
              sim_.now(), {{"port", wr.port}, {"size", wr.size}});
  }
  if (wr.notify_requester) {
    Notification n;
    n.unit = NotifyUnit::kRequester;
    n.port = wr.port;
    n.size = wr.size;
    n.seq = ++port.req_seq;
    n.nla = wr.src_nla;
    write_notification(port, port.req_queue, n);
  }
}

// ---------------------------------------------------------------------------
// Completer / responder.

void ExtollNic::on_frame(net::NetworkLink* link, int side, net::Frame wire,
                         net::FrameMeta meta) {
  if (meta.dst_node >= 0 && node_id_ >= 0 && meta.dst_node != node_id_) {
    // NIC-as-router relay: the frame is for another terminal. Forward
    // it un-decoded (cut-through; the per-hop cost is the egress link's
    // serialization + flight latency), closing the incoming wire hop
    // and re-attaching any lifecycle the frame carries so every link
    // of the routed path gets its own labelled stage.
    const obs::FlowId flow = net::claim_forwarded_flow(link, side, meta);
    net::stage_wire_hop(flow, meta.hops - 1u, sim_.now());
    const Route out = route_for(meta.dst_node);
    assert(out.link && "relay without an egress link");
    ++totals_.frames_forwarded;
    totals_.bytes_forwarded += wire.size();
    out.link->send(out.side, std::move(wire), flow, meta);
    return;
  }
  ++totals_.frames_delivered;
  totals_.bytes_delivered += wire.size();
  auto frame = Frame::decode(wire);
  if (!frame.is_ok()) {
    ++protocol_violations_;
    PG_ERROR("extoll", "%s: undecodable frame", name_.c_str());
    return;
  }
  // The last data-bearing frame of a message carries its lifecycle:
  // the sender queued it under (link, sender side), and delivery is
  // FIFO per direction, so this pop pairs with exactly that send.
  obs::FlowId flow = 0;
  if (frame->last) {
    flow = obs::flow_pop(
        obs::flow_key(link, static_cast<std::uint64_t>(1 - side)));
    // Single-hop deliveries keep the classic "wire" stage; routed
    // multi-hop paths label the final hop like the relays did theirs.
    if (meta.hops > 1) {
      net::stage_wire_hop(flow, meta.hops - 1u, sim_.now());
    } else {
      obs::flow_stage(flow, "net", "wire", sim_.now());
    }
  }
  switch (frame->kind) {
    case Frame::Kind::kPutSegment:
      handle_put_segment(*frame, flow);
      break;
    case Frame::Kind::kGetRequest:
      handle_get_request(*frame, link, side, meta, flow);
      break;
    case Frame::Kind::kGetResponse:
      handle_get_response(*frame, flow);
      break;
  }
}

void ExtollNic::handle_put_segment(const Frame& f, obs::FlowId flow) {
  auto dst = atu_.translate(f.dst_nla + f.offset, f.payload.size(),
                            mem::Access::kWrite);
  if (!dst.is_ok()) {
    ++translation_faults_;
    PG_WARN("extoll", "%s: put destination translation fault",
            name_.c_str());
    return;
  }
  const std::uint32_t seg = static_cast<std::uint32_t>(f.payload.size());
  const SimTime start = std::max(sim_.now(), completer_busy_until_);
  completer_busy_until_ = start + core_cycles(cfg_.completer_cycles) +
                          core_rate().transfer_time(seg);
  // The frame's payload is a window onto the sender's DMA buffer, so
  // these closures copy a refcount, not the data.
  sim_.schedule_at(completer_busy_until_, [this, f, flow, dst = *dst] {
    const std::uint64_t len = f.payload.size();
    dma_->write(dst, f.payload, [this, f, flow, dst, len] {
      if (!f.last) return;
      ++puts_completed_;
      obs::flow_stage(flow, name_.c_str(), "remote_dma", sim_.now());
      if (obs::metrics()) obs::count("extoll.puts_completed");
      if (obs::enabled()) {
        obs::instant(name_.c_str(), "rma", "put-complete", sim_.now(),
                     {{"port", f.port}, {"size", f.total_size}});
      }
      PortState& port = ports_[f.port];
      if (f.notify_completer && port.opened) {
        Notification n;
        n.unit = NotifyUnit::kCompleter;
        n.port = f.port;
        n.size = f.total_size;
        n.seq = ++port.cmp_seq;
        n.nla = f.dst_nla;
        write_notification(port, port.cmp_queue, n, flow);
      } else if (flow != 0) {
        // No notification: the consumer detects arrival by polling the
        // payload's final bytes, so park the lifecycle under the last
        // written address for the poll loop to claim.
        obs::flow_push(obs::flow_key(&fabric_, dst + len - 1), flow);
      }
    }, flow);
  });
}

void ExtollNic::handle_get_request(const Frame& f, net::NetworkLink* link,
                                   int side, net::FrameMeta meta,
                                   obs::FlowId flow) {
  auto src =
      atu_.translate(f.src_nla, f.total_size, mem::Access::kRead);
  if (!src.is_ok()) {
    ++translation_faults_;
    PG_WARN("extoll", "%s: get source translation fault", name_.c_str());
    return;
  }
  // The completer pulls the data and hands it to the responder, which
  // streams response segments back to the requesting terminal — routed
  // home when the request names one (on direct-attached pairs the route
  // resolves to the arrival link, the legacy behaviour), otherwise over
  // the arrival link.
  struct Job {
    Frame req;
    Addr src;
    Route route;
    std::int32_t reply_to = -1;
    obs::FlowId flow = 0;
    std::uint64_t sent = 0;
    std::function<void()> step;
  };
  auto job = std::make_shared<Job>();
  job->req = f;
  job->src = *src;
  job->route = Route{link, side};
  if (meta.src_node >= 0 && node_id_ >= 0) {
    job->route = route_for(meta.src_node);
    job->reply_to = meta.src_node;
  }
  job->flow = flow;
  job->step = [this, job] {
    const std::uint64_t offset = job->sent;
    const std::uint64_t remaining = job->req.total_size - offset;
    const std::uint32_t seg = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cfg_.segment_bytes, remaining));
    job->sent += seg;
    const bool last = job->sent == job->req.total_size;
    dma_->read(
        job->src + offset, seg,
        [this, job, seg, offset, last](Payload data) {
          if (!last) {
            job->step();  // overlap the next pull with this push
          }
          const SimTime start = std::max(sim_.now(), responder_busy_until_);
          responder_busy_until_ = start +
                                  core_cycles(cfg_.responder_cycles) +
                                  core_rate().transfer_time(seg);
          sim_.schedule_at(
              responder_busy_until_,
              [this, job, offset, last, data = std::move(data)]() mutable {
                Frame resp;
                resp.kind = Frame::Kind::kGetResponse;
                resp.port = job->req.port;
                resp.total_size = job->req.total_size;
                resp.offset = offset;
                resp.src_nla = job->req.src_nla;
                resp.dst_nla = job->req.dst_nla;
                resp.notify_completer = job->req.notify_completer;
                resp.last = last;
                resp.payload = std::move(data);
                if (last) {
                  // The responder's pull + push is the remote half of
                  // the get's fetch work; the response's wire leg
                  // accumulates into the same "wire" stage.
                  obs::flow_stage(job->flow, name_.c_str(), "nic_fetch",
                                  sim_.now());
                }
                originate(job->route, resp, job->reply_to,
                          last ? job->flow : 0);
                if (last) job->step = nullptr;
              });
        },
        offset == 0 ? job->flow : 0);
  };
  job->step();
}

void ExtollNic::handle_get_response(const Frame& f, obs::FlowId flow) {
  auto dst = atu_.translate(f.dst_nla + f.offset, f.payload.size(),
                            mem::Access::kWrite);
  if (!dst.is_ok()) {
    ++translation_faults_;
    PG_WARN("extoll", "%s: get destination translation fault",
            name_.c_str());
    return;
  }
  const std::uint32_t seg = static_cast<std::uint32_t>(f.payload.size());
  const SimTime start = std::max(sim_.now(), completer_busy_until_);
  completer_busy_until_ = start + core_cycles(cfg_.completer_cycles) +
                          core_rate().transfer_time(seg);
  sim_.schedule_at(completer_busy_until_, [this, f, flow, dst = *dst] {
    const std::uint64_t len = f.payload.size();
    dma_->write(dst, f.payload, [this, f, flow, dst, len] {
      if (!f.last) return;
      ++gets_completed_;
      obs::flow_stage(flow, name_.c_str(), "remote_dma", sim_.now());
      if (obs::metrics()) obs::count("extoll.gets_completed");
      if (obs::enabled()) {
        obs::instant(name_.c_str(), "rma", "get-complete", sim_.now(),
                     {{"port", f.port}, {"size", f.total_size}});
      }
      PortState& port = ports_[f.port];
      if (f.notify_completer && port.opened) {
        Notification n;
        n.unit = NotifyUnit::kCompleter;
        n.port = f.port;
        n.size = f.total_size;
        n.seq = ++port.cmp_seq;
        n.nla = f.dst_nla;
        write_notification(port, port.cmp_queue, n, flow);
      } else if (flow != 0) {
        obs::flow_push(obs::flow_key(&fabric_, dst + len - 1), flow);
      }
    }, flow);
  });
}

// ---------------------------------------------------------------------------
// Notifications.

void ExtollNic::write_notification(PortState& port, NotifQueue& queue,
                                   const Notification& n, obs::FlowId flow) {
  // The NIC sees read-pointer updates as MMIO writes from the consumer;
  // modelled as a zero-time peek of the pointer cell.
  const std::uint32_t rp = memory_.read_u32(queue.rp_addr);
  if (queue.wp - rp >= queue.entries) {
    ++notifications_dropped_;
    PG_ERROR("extoll", "%s: notification queue overflow (port %u)",
             name_.c_str(), n.port);
    return;
  }
  const Addr slot =
      queue.slot_base + (queue.wp % queue.entries) * kNotificationBytes;
  ++queue.wp;
  std::vector<std::uint8_t> bytes(kNotificationBytes);
  const std::uint64_t w0 = n.encode_word0();
  const std::uint64_t w1 = n.encode_word1();
  std::memcpy(bytes.data(), &w0, 8);
  std::memcpy(bytes.data() + 8, &w1, 8);
  ++notifications_written_;
  // When a sink is attached, ride the delivery callback to mark the moment
  // the notification lands in host memory (the consumer's poll target).
  std::function<void()> on_delivered;
  if (obs::enabled() || obs::metrics() || flow != 0) {
    const bool requester = n.unit == NotifyUnit::kRequester;
    const SimTime t_posted = port.wr_posted_at;
    const std::uint8_t nport = n.port;
    const std::uint32_t nsize = n.size;
    on_delivered = [this, requester, t_posted, nport, nsize, flow, slot] {
      // The notification slot just landed: close notify_write and park
      // the lifecycle under the slot address for whichever consumer
      // (host spin loop or GPU kernel) polls it.
      obs::flow_stage(flow, name_.c_str(), "notify_write", sim_.now());
      obs::flow_push(obs::flow_key(&fabric_, slot), flow);
      if (obs::metrics()) {
        obs::count("extoll.notifications");
        if (requester) {
          obs::observe("extoll.wr_to_notify_ns",
                       static_cast<std::uint64_t>(
                           to_ns(sim_.now() - t_posted)));
        }
      }
      if (obs::enabled()) {
        if (requester) {
          obs::span(name_.c_str(), "rma", "wr-to-notify", t_posted,
                    sim_.now(), {{"port", nport}, {"size", nsize}});
        } else {
          obs::instant(name_.c_str(), "rma", "cmp-notify-delivered",
                       sim_.now(), {{"port", nport}, {"size", nsize}});
        }
      }
    };
  }
  sim_.schedule(core_cycles(cfg_.notification_cycles),
                [this, slot, bytes = std::move(bytes),
                 cb = std::move(on_delivered)]() mutable {
                  fabric_.write(endpoint_id_, slot, std::move(bytes),
                                std::move(cb));
                });
}

// ---------------------------------------------------------------------------
// PCIe endpoint: the BAR requester pages.

void ExtollNic::inbound_write(Addr addr, std::span<const std::uint8_t> data) {
  assert(addr >= AddressMap::kExtollBarBase);
  const std::uint64_t offset = addr - AddressMap::kExtollBarBase;
  const std::uint32_t port_id =
      static_cast<std::uint32_t>(offset / kRequesterPageSize);
  const std::uint64_t word_off = offset % kRequesterPageSize;
  if (port_id >= cfg_.num_ports || data.size() != 8 || word_off > 16 ||
      word_off % 8 != 0) {
    ++protocol_violations_;
    PG_WARN("extoll", "%s: stray BAR write at +0x%llx (%zu bytes)",
            name_.c_str(), static_cast<unsigned long long>(offset),
            data.size());
    return;
  }
  PortState& port = ports_[port_id];
  std::uint64_t value = 0;
  std::memcpy(&value, data.data(), 8);
  const unsigned word = static_cast<unsigned>(word_off / 8);
  if (word == 0) {
    // First staging word of a WR. Host drivers queued the lifecycle
    // before their MMIO writes; a GPU-built WR announces itself here,
    // so mint its flow now - the post stage then covers the BAR write
    // serialization the device actually pays.
    obs::flow_ensure_parked(obs::flow_key(&fabric_, addr - word_off),
                            sim_.now());
  }
  port.staging[word] = value;
  port.staged_mask |= static_cast<std::uint8_t>(1u << word);
  if (word_off == kWrWord2Offset) {
    if (port.staged_mask != 0b111) {
      ++protocol_violations_;
      PG_WARN("extoll", "%s: WR kicked with incomplete staging on port %u",
              name_.c_str(), port_id);
      port.staged_mask = 0;
      return;
    }
    port.staged_mask = 0;
    WorkRequest wr = WorkRequest::decode(port.staging[0], port.staging[1],
                                         port.staging[2]);
    wr.port = static_cast<std::uint8_t>(port_id);  // page implies the port
    post_work_request(wr);
  }
}

SimTime ExtollNic::inbound_read(SimTime arrival, Addr /*addr*/,
                                std::span<std::uint8_t> out) {
  // The requester pages are write-only; reads return zeros (and would be
  // a software bug worth noticing).
  PG_WARN("extoll", "%s: read from write-only BAR", name_.c_str());
  std::fill(out.begin(), out.end(), 0);
  return arrival + core_cycles(4);
}

}  // namespace pg::extoll
