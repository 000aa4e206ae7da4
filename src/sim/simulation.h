// The simulation kernel: a clock plus an event queue.
//
// Every model component holds a Simulation& and expresses behaviour as
// events (schedule / schedule_at). A Simulation executes on one thread
// at a time; determinism comes from the birth-key total order in
// EventQueue. In the classic configuration there is a single Simulation
// and run()/run_until() drive it directly. In sharded configurations
// (sim/parallel.h) each shard owns one Simulation and a ShardGroup
// coordinates them: the group calls run_window()/step_one() and moves
// the clock across synchronization fences with fence_now(); events
// crossing shards enter through schedule_admitted() carrying the
// sender's birth stamp.
//
// Poll loops (PollUntil in coro.h, and the GPU's device-memory poll
// loops in gpu/device.cc) schedule their re-probes through
// schedule_reprobe(). While every waiting loop has failed a probe since
// the last plain event, nothing can change what the next probes read,
// so a loop jumps to its first probe at or after the next plain event
// (or the run's deadline) and the probes in between are charged — to
// total_scheduled(), events_executed() and the tag counter — instead of
// executed. Every event key and count stays what stepping would give;
// DESIGN.md ("Pure probes") has the argument.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/units.h"
#include "sim/event_queue.h"

namespace pg::sim {

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` after the current time.
  EventId schedule(SimDuration delay, EventFn fn) {
    return queue_.schedule_at(now_ + delay, now_, std::move(fn));
  }

  /// Schedules `fn` at an absolute timestamp (must be >= now()).
  EventId schedule_at(SimTime when, EventFn fn) {
    return queue_.schedule_at(when < now_ ? now_ : when, now_,
                              std::move(fn));
  }

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// A waiting poll loop's registration; PollUntil and every GPU warp
  /// own one.
  struct PollLoop {
    SimDuration interval = 0;
    std::uint64_t settled_epoch = 0;  // epoch of its last failed probe
    bool waiting = false;
  };

  /// Schedules the next probe of `loop` after a failed probe at now().
  /// Probes that provably fail are charged instead of executed; returns
  /// how many were charged (0 outside run(), run_until() and
  /// run_until_condition*(): sharded windows and step_one() never skip).
  /// Inline: outside those calls this is the every-probe path.
  std::uint64_t schedule_reprobe(PollLoop& loop, EventFn&& fn) {
    const std::uint64_t skipped =
        skip_horizon_ == kNoSkip && loop.waiting ? 0 : settle(loop);
    const SimTime when =
        now_ + static_cast<SimTime>(skipped + 1) * loop.interval;
    queue_.schedule_probe(when, when - loop.interval, skipped, std::move(fn));
    events_executed_ += skipped;
    probes_skipped_ += skipped;
    return skipped;
  }

  /// `loop`'s predicate held; it no longer waits.
  void poll_done(PollLoop& loop);

  /// A plain event ran (or driver code did, or a probe went on to change
  /// state, as a device poll loop's exiting probe does): every loop is
  /// unsettled.
  void new_epoch() {
    ++epoch_;
    settled_ = 0;
  }

  /// Re-probes run as events, and re-probes charged by schedule_reprobe()
  /// instead. Host-only: not part of any fingerprint (both are already in
  /// events_executed()).
  std::uint64_t probes_executed() const { return probes_executed_; }
  std::uint64_t probes_skipped() const { return probes_skipped_; }

  /// Runs events until the queue drains or `run_stop()` is called.
  /// Returns the number of events executed.
  std::uint64_t run();

  /// Runs events with timestamps <= `deadline` (events exactly at the
  /// deadline run). The clock is advanced to the deadline afterwards
  /// unless the run stopped early (run_stop() or the event limit) with
  /// such events still queued.
  std::uint64_t run_until(SimTime deadline);

  /// Runs until `predicate()` turns true (checked after every event) or
  /// the queue drains. Returns true when the predicate was satisfied.
  bool run_until_condition(const std::function<bool()>& predicate);

  /// run_until_condition segmented at a sim-time boundary: only events
  /// with timestamps <= `deadline` execute. kFired = predicate turned
  /// true (clock reads the firing event); kDeadline = every event up to
  /// the deadline ran without firing (clock fenced at the deadline);
  /// kDrained = queue empty / event limit with the predicate unmet.
  /// Drives the telemetry sampler (sys/Cluster): the exact same events
  /// execute as one unsegmented run_until_condition call would.
  enum class RunOutcome { kFired, kDeadline, kDrained };
  RunOutcome run_until_condition_before(
      const std::function<bool()>& predicate, SimTime deadline);

  /// Requests that run()/run_until() return after the current event.
  void run_stop() { stop_requested_ = true; }

  bool idle() const { return queue_.empty(); }
  std::uint64_t events_executed() const { return events_executed_; }

  /// Total events ever scheduled (a determinism fingerprint: two runs of
  /// the same experiment must agree on it exactly).
  std::uint64_t total_scheduled() const { return queue_.total_scheduled(); }

  /// Safety valve: run() aborts (with an assertion in debug builds, by
  /// returning in release builds) after this many events. Guards against
  /// accidental event storms in model bugs.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }
  bool event_limit_hit() const { return event_limit_hit_; }

  // --- Sharded execution surface (driven by sim::ShardGroup) ---------

  /// Brands this Simulation as shard `tag` of a group: every locally
  /// minted event id carries the tag, making ids and birth keys unique
  /// across the group. Call before any event is scheduled.
  void set_shard_tag(std::uint8_t tag) { queue_.set_owner_tag(tag); }

  /// Wires this shard to the group's shared scheduling counter and
  /// toggles whether fresh tags consume it (serial coordinator context:
  /// host code, merged execution) or the shard-local counter (parallel
  /// rounds). Managed entirely by ShardGroup; see
  /// EventQueue::set_shared_seq for the ordering rationale.
  void set_shared_births(std::uint64_t* seq) { queue_.set_shared_seq(seq); }
  void set_shared_births_active(bool on) { queue_.set_shared_active(on); }

  /// Birth stamp for an event this shard is about to hand to another
  /// shard: the local clock plus a freshly minted tag. Counts toward
  /// total_scheduled() here (the event executes remotely but was
  /// scheduled here, exactly as the single-queue engine would count it).
  struct Birth {
    SimTime time;
    EventId tag;
  };
  Birth take_birth() { return Birth{now_, queue_.take_birth_tag()}; }

  /// Enqueues an event admitted from another shard under the sender's
  /// birth stamp. `when` must not precede the last event this shard
  /// executed — the ShardGroup's lookahead rule guarantees that.
  void schedule_admitted(SimTime when, SimTime birth_time, EventId birth_tag,
                         EventFn fn) {
    queue_.schedule_admitted(when, birth_time, birth_tag, std::move(fn));
  }

  /// Runs events with timestamps strictly below `cap`. When `condition`
  /// is non-null it is evaluated after every event; execution stops
  /// with fired=true the moment it turns true (the clock then reads the
  /// firing event's timestamp). Monotone conditions only: once true it
  /// must stay true until the group observes it.
  struct WindowResult {
    std::uint64_t executed = 0;
    bool fired = false;
  };
  WindowResult run_window(SimTime cap,
                          const std::function<bool()>* condition);

  /// Executes exactly the next pending event (requires !idle()) and
  /// returns its timestamp, or -1 if the event limit tripped instead.
  /// The merged-sequential path of ShardGroup interleaves shards one
  /// event at a time through this.
  SimTime step_one();

  /// Ordering key of the next pending event. Requires !idle().
  EventQueue::Key next_key() const { return queue_.next_key(); }

  /// Full ordering key of the event currently executing (valid only
  /// inside an event callback). The shard-aware observability buffers
  /// stamp every deferred record with it, so the post-round merge can
  /// interleave records from all shards in exact global event order.
  const EventQueue::Key& current_key() const { return current_key_; }

  /// Timestamp of the next pending event. Requires !idle().
  SimTime next_time() const { return queue_.next_time(); }

  /// Moves the clock forward to a group synchronization point without
  /// executing anything (never backwards).
  void fence_now(SimTime t) {
    if (t > now_) now_ = t;
  }

 private:
  bool step();

  /// Arms probe skipping for one run call with the given deadline
  /// (kNever: none) and counts the driver code before it as a plain
  /// event; disarms on exit.
  class RunScope {
   public:
    RunScope(Simulation& sim, SimTime deadline) : sim_(sim) {
      sim_.skip_horizon_ = deadline;
      sim_.new_epoch();
    }
    ~RunScope() { sim_.skip_horizon_ = kNoSkip; }

   private:
    Simulation& sim_;
  };

  /// schedule_reprobe's bookkeeping: registers `loop`, marks it settled
  /// when skipping is armed, and returns the probes it may charge.
  std::uint64_t settle(PollLoop& loop);

  /// Probes `loop` may charge after a failed probe at now(), given that
  /// every waiting loop has settled.
  std::uint64_t probes_to_skip(SimDuration interval);

  static constexpr SimTime kNoSkip = std::numeric_limits<SimTime>::min();

  EventQueue queue_;
  SimTime now_ = 0;
  EventQueue::Key current_key_{};
  bool stop_requested_ = false;
  std::uint64_t events_executed_ = 0;
  std::uint64_t event_limit_ = std::numeric_limits<std::uint64_t>::max();
  bool event_limit_hit_ = false;

  // Poll-loop fast-forward state (schedule_reprobe).
  std::vector<PollLoop*> loops_;    // waiting loops
  std::uint64_t epoch_ = 1;         // bumped by every plain event
  std::size_t settled_ = 0;         // loops that failed a probe this epoch
  SimTime settled_at_ = 0;          // when the last of them settled
  SimTime skip_horizon_ = kNoSkip;  // current run's deadline
  std::uint64_t probes_executed_ = 0;
  std::uint64_t probes_skipped_ = 0;
};

}  // namespace pg::sim
