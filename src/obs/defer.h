// Deferred-recording entry points for the shard-aware observability
// sinks (obs/shard_sink.h).
//
// During a parallel round (sim/parallel.h) every worker thread carries
// a thread-local pointer to its shard's append-only op buffer. The
// inline instrumentation helpers in trace.h / metrics.h / flow.h test
// that pointer right after the usual sink-attached branch: when it is
// set they append a deferred op — stamped with the executing event's
// birth key — instead of touching the (single-threaded) global sinks.
// The coordinator replays all buffers in global event order at the next
// synchronization fence, producing byte-identical sink state to the
// sequential engine. When the pointer is null (unsharded runs, host
// code between runs, replay itself) the helpers apply directly, exactly
// as before this layer existed.
//
// This header is deliberately tiny — only forward declarations — so the
// sink headers can include it without pulling in the buffer machinery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/units.h"

namespace pg::obs {

class ShardOpBuffer;

/// The buffer bound to this thread for the current shard window, or
/// nullptr when observability applies directly (the common case).
/// constinit: reads go straight to the TLS slot, with no call through the
/// init wrapper GCC emits for an `extern thread_local` that might need
/// dynamic initialisation (UBSan reports a null load inside it).
extern constinit thread_local ShardOpBuffer* t_shard_ops;
inline ShardOpBuffer* shard_ops() { return t_shard_ops; }

// Out-of-line deferred recorders, defined in shard_sink.cc. Callers
// have already checked that the corresponding sink is attached.
void defer_span(ShardOpBuffer* b, const char* track, const char* category,
                std::string name, SimTime begin, SimTime end,
                std::string rendered_args);
void defer_instant(ShardOpBuffer* b, const char* track, const char* category,
                   std::string name, SimTime at, std::string rendered_args);
void defer_count(ShardOpBuffer* b, const char* name, std::uint64_t delta);
void defer_observe(ShardOpBuffer* b, const char* name, std::uint64_t value);
void defer_gauge(ShardOpBuffer* b, const char* name, double value);
std::uint64_t defer_flow_begin(ShardOpBuffer* b, SimTime at);
void defer_flow_stage(ShardOpBuffer* b, std::uint64_t id, const char* track,
                      const char* name, SimTime end);
void defer_flow_end(ShardOpBuffer* b, std::uint64_t id, const char* track,
                    SimTime at);
void defer_flow_step(ShardOpBuffer* b, std::uint64_t id, const char* track,
                     SimTime at);
void defer_flow_push(ShardOpBuffer* b, std::uint64_t key, std::uint64_t id);
std::uint64_t defer_flow_pop(ShardOpBuffer* b, std::uint64_t key);
std::uint64_t defer_flow_pop_or_begin(ShardOpBuffer* b, std::uint64_t key,
                                      SimTime at);
void defer_flow_ensure_parked(ShardOpBuffer* b, std::uint64_t key, SimTime at);
void defer_flow_poll_scan(ShardOpBuffer* b, const char* track, SimTime at,
                          const std::uint64_t* keys, std::size_t n);

}  // namespace pg::obs
