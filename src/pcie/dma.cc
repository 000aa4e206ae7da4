#include "pcie/dma.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pg::pcie {

void DmaEngine::read(mem::Addr addr, std::uint64_t len,
                     std::function<void(Payload)> on_done, obs::FlowId flow) {
  assert(len > 0);
  auto* job = new ReadJob;
  job->engine = this;
  job->base = addr;
  job->length = len;
  // Every byte is written by exactly one chunk before the payload is
  // handed out, so the buffer needs no zero fill.
  job->buffer = std::make_shared_for_overwrite<std::uint8_t[]>(len);
  job->t_start = sim_.now();
  job->flow = flow;
  job->on_done = std::move(on_done);
  pump_reads(job);
}

void DmaEngine::pump_reads(ReadJob* job) {
  while (job->next_offset < job->length &&
         job->outstanding < cfg_.max_outstanding_reads) {
    const std::uint64_t offset = job->next_offset;
    const auto chunk = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        cfg_.read_request_size, job->length - offset));
    job->next_offset += chunk;
    ++job->outstanding;
    ++reads_issued_;
    // The target serves the chunk straight into the job's buffer. With
    // the engine pointer folded into the job, the capture is two words,
    // so std::function stores the callback inline — no heap allocation
    // per chunk on a path every payload byte funnels through.
    fabric_.read_into(
        self_, job->base + offset, chunk, job->buffer.get() + offset,
        [job, chunk] {
          --job->outstanding;
          job->received += chunk;
          DmaEngine* self = job->engine;
          if (job->received == job->length) {
            if (obs::metrics()) {
              obs::count("dma.reads");
              obs::observe("dma.read_ns",
                           static_cast<std::uint64_t>(
                               to_ns(self->sim_.now() - job->t_start)));
            }
            if (obs::enabled()) {
              if (job->flow != 0) {
                obs::span("pcie.dma", "dma", "dma-read", job->t_start,
                          self->sim_.now(),
                          {{"addr", job->base},
                           {"len", job->length},
                           {"flow", job->flow}});
              } else {
                obs::span("pcie.dma", "dma", "dma-read", job->t_start,
                          self->sim_.now(),
                          {{"addr", job->base}, {"len", job->length}});
              }
              obs::flow_step(job->flow, "pcie.dma", self->sim_.now());
            }
            job->on_done(Payload(std::move(job->buffer), 0, job->length));
            delete job;
            return;
          }
          self->pump_reads(job);
        });
  }
}

void DmaEngine::write(mem::Addr addr, Payload data,
                      std::function<void()> on_done, obs::FlowId flow) {
  assert(!data.empty());
  const std::uint64_t total = data.size();
  if (flow != 0 && obs::enabled()) {
    // Trace-only: draw the flow's DMA hop as a span over the whole
    // scatter, completing when the last byte lands. Wrapping the
    // callback adds no simulation events, so timing is unchanged.
    on_done = [this, addr, total, flow, inner = std::move(on_done),
               t0 = sim_.now()] {
      obs::span("pcie.dma", "dma", "dma-write", t0, sim_.now(),
                {{"addr", addr}, {"len", total}, {"flow", flow}});
      obs::flow_step(flow, "pcie.dma", sim_.now());
      if (inner) inner();
    };
  }
  // Posted writes: issue all chunks back to back; the link model
  // serializes them. Only the final chunk carries the completion callback
  // ("last byte landed"). Every chunk is a window onto the one payload
  // buffer, so chunking costs no copies on the DMA side.
  std::uint64_t offset = 0;
  while (offset < total) {
    const auto chunk = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        cfg_.write_chunk_size, total - offset));
    const bool last = offset + chunk == total;
    ++writes_issued_;
    fabric_.write_shared(self_, addr + offset, data.slice(offset, chunk),
                         last ? std::move(on_done) : std::function<void()>{});
    offset += chunk;
  }
}

}  // namespace pg::pcie
