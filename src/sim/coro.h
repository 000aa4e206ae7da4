// Coroutine plumbing for sequential control flows inside the simulation.
//
// Host-side control code (the CPU running the put/get API) is naturally
// sequential: build a descriptor, ring a doorbell, poll a flag. Writing it
// as a C++20 coroutine over the event queue keeps it as readable as the C
// code it models, while every co_await advances simulated time.
//
// GPU device code does NOT use coroutines — it is interpreted from the
// PTX-lite ISA so that instruction and memory-transaction counts emerge
// from real code (see gpu/).
//
// The resume/poll lambdas scheduled here capture at most a coroutine
// handle plus a pointer; they fit EventFn's inline buffer, so suspending
// and resuming a coroutine never heap-allocates in the event queue.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace pg::sim {

/// A fire-and-forget coroutine bound to the simulation. The coroutine body
/// starts running immediately on creation and self-destroys at completion;
/// the SimTask handle only observes completion.
class SimTask {
 public:
  struct promise_type {
    std::shared_ptr<bool> done = std::make_shared<bool>(false);

    SimTask get_return_object() { return SimTask(done); }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() { *done = true; }
    void unhandled_exception() {
      std::fprintf(stderr, "SimTask: unhandled exception in coroutine\n");
      std::terminate();
    }
  };

  SimTask() = default;
  bool valid() const { return done_ != nullptr; }
  bool done() const { return done_ && *done_; }

 private:
  explicit SimTask(std::shared_ptr<bool> done) : done_(std::move(done)) {}
  std::shared_ptr<bool> done_;
};

/// An awaitable sub-coroutine: `co_await some_co_task()` runs the callee
/// to completion before the caller resumes. Unlike SimTask, the body is
/// lazy — it starts when awaited — and completion hands control straight
/// back to the awaiting coroutine via symmetric transfer, so composing
/// control flow out of CoTasks schedules exactly the same events as
/// writing it inline. That property is what lets backend-specific host
/// sequences be factored out of the experiment drivers without
/// perturbing the deterministic event fingerprint.
///
/// A CoTask must be awaited (or destroyed unstarted) by its owner; it is
/// move-only and destroys the coroutine frame in its destructor.
class [[nodiscard]] CoTask {
 public:
  struct promise_type {
    std::coroutine_handle<> continuation = std::noop_coroutine();

    CoTask get_return_object() {
      return CoTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) const noexcept {
        return h.promise().continuation;
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {
      std::fprintf(stderr, "CoTask: unhandled exception in coroutine\n");
      std::terminate();
    }
  };

  CoTask() = default;
  CoTask(CoTask&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  CoTask& operator=(CoTask&& other) noexcept {
    if (this != &other) {
      if (handle_) handle_.destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  ~CoTask() {
    if (handle_) handle_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    handle_.promise().continuation = parent;
    return handle_;
  }
  void await_resume() const noexcept {}

 private:
  explicit CoTask(std::coroutine_handle<promise_type> h) : handle_(h) {}
  std::coroutine_handle<promise_type> handle_;
};

/// co_await Delay{sim, d}: resume after d simulated time.
struct Delay {
  Simulation& sim;
  SimDuration duration;

  bool await_ready() const noexcept { return duration <= 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    sim.schedule(duration, [h]() mutable { h.resume(); });
  }
  void await_resume() const noexcept {}
};

/// co_await PollUntil{sim, pred, interval, probe_cost}:
/// models a CPU polling loop. The predicate is probed every `interval`;
/// once true, the coroutine resumes `probe_cost` later (the cost of the
/// successful probe itself). Probes are pure reads of simulator state:
/// the predicate must not write anything, so a probe that follows only
/// other probes sees what the previous one saw. Re-probes go through
/// Simulation::schedule_reprobe, which may charge such provably failing
/// probes instead of executing them; the probe count, event counts and
/// every event key are those of the stepped loop.
struct PollUntil {
  Simulation& sim;
  std::function<bool()> predicate;
  SimDuration interval;
  SimDuration probe_cost = 0;

  std::coroutine_handle<> handle_{};
  std::uint64_t probes_ = 0;
  Simulation::PollLoop loop_{};

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    handle_ = h;
    loop_.interval = interval;
    step();
  }
  /// Number of probes it took (including the successful one).
  std::uint64_t await_resume() const noexcept { return probes_; }

 private:
  void step() {
    ++probes_;
    if (predicate()) {
      sim.poll_done(loop_);
      sim.schedule(probe_cost, [h = handle_]() mutable { h.resume(); });
      return;
    }
    probes_ += sim.schedule_reprobe(loop_, [this] { step(); });
  }
};

/// A broadcast completion signal. Coroutines co_await trigger.wait(sim);
/// fire() resumes all current waiters (at now, as fresh events). Waiting on
/// an already-fired trigger continues immediately.
class Trigger {
 public:
  struct Waiter {
    Trigger& trigger;
    Simulation& sim;

    bool await_ready() const noexcept { return trigger.fired_; }
    void await_suspend(std::coroutine_handle<> h) {
      trigger.waiters_.push_back({&sim, h});
    }
    void await_resume() const noexcept {}
  };

  Waiter wait(Simulation& sim) { return Waiter{*this, sim}; }

  void fire() {
    if (fired_) return;
    fired_ = true;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto& w : waiters) {
      w.sim->schedule(0, [h = w.handle]() mutable { h.resume(); });
    }
  }

  bool fired() const { return fired_; }

  /// Re-arms the trigger. Must not be called while coroutines wait on it.
  void reset() {
    assert(waiters_.empty());
    fired_ = false;
  }

 private:
  struct Pending {
    Simulation* sim;
    std::coroutine_handle<> handle;
  };
  bool fired_ = false;
  std::vector<Pending> waiters_;
};

}  // namespace pg::sim
