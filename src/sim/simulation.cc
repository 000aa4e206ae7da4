#include "sim/simulation.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace pg::sim {

bool Simulation::step() {
  if (queue_.empty()) return false;
  if (events_executed_ >= event_limit_) {
    if (!event_limit_hit_) {
      // Diagnose the safety valve loudly: a tripped limit means a model
      // scheduled an event storm, and a silent early return makes that
      // look like ordinary convergence failure.
      PG_ERROR("sim",
               "event limit tripped: %llu events executed, t=%lld ps; "
               "run() returns early (raise with set_event_limit)",
               static_cast<unsigned long long>(events_executed_),
               static_cast<long long>(now_));
    }
    event_limit_hit_ = true;
    return false;
  }
  auto popped = queue_.pop();
  assert(popped.time >= now_ && "event queue produced time travel");
  now_ = popped.time;
  current_key_ = EventQueue::Key{popped.time, popped.birth_time, popped.id};
  ++events_executed_;
  if (popped.probe) {
    ++probes_executed_;
  } else {
    new_epoch();
  }
  popped.fn();
  return true;
}

std::uint64_t Simulation::settle(PollLoop& loop) {
  if (!loop.waiting) {
    loop.waiting = true;
    loops_.push_back(&loop);
  }
  // Disarmed, a loop stays unsettled; the next run call starts a new
  // epoch anyway.
  if (skip_horizon_ == kNoSkip) return 0;
  if (loop.settled_epoch != epoch_) {
    loop.settled_epoch = epoch_;
    if (++settled_ == loops_.size()) settled_at_ = now_;
  }
  // Loops that settled at this very instant must not skip yet: their
  // same-time peers that probed earlier did not, and skipping now would
  // reorder the landing probes' tags among same-key peers.
  if (settled_ != loops_.size() || settled_at_ >= now_) return 0;
  return probes_to_skip(loop.interval);
}

std::uint64_t Simulation::probes_to_skip(SimDuration interval) {
  const SimTime target = std::min(skip_horizon_, queue_.next_plain_time());
  // With no plain event and no deadline ahead, stepping spins until the
  // event limit; a jump would have no landing.
  if (target == kNever || target <= now_ + interval ||
      target > kNever - interval) {
    return 0;
  }
  // The event limit must not trip inside the skipped span, or stepping
  // would stop at a probe this loop never executes. Bound every loop's
  // probes up to the target.
  if (event_limit_ != std::numeric_limits<std::uint64_t>::max()) {
    std::uint64_t bound = 0;
    for (const PollLoop* l : loops_) {
      bound += static_cast<std::uint64_t>((target - now_) / l->interval) + 1;
    }
    if (bound >= event_limit_ - events_executed_) return 0;
  }
  // Land on the first probe boundary at or after the target.
  return static_cast<std::uint64_t>((target - now_ - 1) / interval);
}

void Simulation::poll_done(PollLoop& loop) {
  if (!loop.waiting) return;
  loop.waiting = false;
  if (loop.settled_epoch == epoch_) --settled_;
  loops_.erase(std::find(loops_.begin(), loops_.end(), &loop));
  if (settled_ == loops_.size()) settled_at_ = now_;
}

std::uint64_t Simulation::run() {
  RunScope scope(*this, kNever);
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (!stop_requested_ && step()) ++n;
  return n;
}

std::uint64_t Simulation::run_until(SimTime deadline) {
  RunScope scope(*this, deadline);
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (!stop_requested_ && !queue_.empty() &&
         queue_.next_time() <= deadline) {
    if (!step()) break;
    ++n;
  }
  // Fence only when everything up to the deadline ran: after an early
  // stop the next step() must not see the clock ahead of its event.
  if (now_ < deadline && (queue_.empty() || queue_.next_time() > deadline)) {
    now_ = deadline;
  }
  return n;
}

bool Simulation::run_until_condition(const std::function<bool()>& predicate) {
  RunScope scope(*this, kNever);
  stop_requested_ = false;
  if (predicate()) return true;
  while (!stop_requested_ && step()) {
    if (predicate()) return true;
  }
  return predicate();
}

Simulation::RunOutcome Simulation::run_until_condition_before(
    const std::function<bool()>& predicate, SimTime deadline) {
  RunScope scope(*this, deadline);
  stop_requested_ = false;
  if (predicate()) return RunOutcome::kFired;
  while (!stop_requested_) {
    if (queue_.empty()) return RunOutcome::kDrained;
    if (queue_.next_time() > deadline) {
      // Everything up to the boundary ran; fence the clock there so the
      // caller samples against a well-defined instant.
      if (now_ < deadline) now_ = deadline;
      return RunOutcome::kDeadline;
    }
    if (!step()) return RunOutcome::kDrained;
    if (predicate()) return RunOutcome::kFired;
  }
  return predicate() ? RunOutcome::kFired : RunOutcome::kDrained;
}

Simulation::WindowResult Simulation::run_window(
    SimTime cap, const std::function<bool()>* condition) {
  WindowResult out;
  EventQueue::Popped popped;
  // Hot path of every parallel round: inspect-and-pop fused into one
  // queue call instead of the next_time()/step() double scan.
  for (;;) {
    if (events_executed_ >= event_limit_) {
      // Trip only when a sub-cap event is actually pending, exactly as
      // step() would have (the event stays queued).
      if (queue_.empty() || queue_.next_time() >= cap) break;
      if (!event_limit_hit_) {
        PG_ERROR("sim",
                 "event limit tripped: %llu events executed, t=%lld ps; "
                 "run_window returns early (raise with set_event_limit)",
                 static_cast<unsigned long long>(events_executed_),
                 static_cast<long long>(now_));
      }
      event_limit_hit_ = true;
      break;
    }
    if (!queue_.pop_if_before(cap, &popped)) break;
    assert(popped.time >= now_ && "event queue produced time travel");
    now_ = popped.time;
    current_key_ = EventQueue::Key{popped.time, popped.birth_time, popped.id};
    ++events_executed_;
    probes_executed_ += popped.probe;
    popped.fn();
    ++out.executed;
    if (condition != nullptr && (*condition)()) {
      out.fired = true;
      break;
    }
  }
  return out;
}

SimTime Simulation::step_one() {
  if (!step()) return -1;
  return now_;
}

}  // namespace pg::sim
