// Unit and property tests for the discrete-event engine and the
// coroutine layer on top of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "sim/coro.h"
#include "sim/event_queue.h"
#include "sim/inline_fn.h"
#include "sim/simulation.h"

namespace pg::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int ran = 0;
  q.schedule_at(1, [&] { ran += 1; });
  EventId doomed = q.schedule_at(2, [&] { ran += 10; });
  q.schedule_at(3, [&] { ran += 100; });
  EXPECT_TRUE(q.cancel(doomed));
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(ran, 101);
}

TEST(EventQueue, PropertyNeverRunsOutOfOrder) {
  Rng rng(1234);
  EventQueue q;
  for (int i = 0; i < 2000; ++i) {
    q.schedule_at(static_cast<SimTime>(rng.next_below(1000)), [] {});
  }
  SimTime last = -1;
  while (!q.empty()) {
    auto popped = q.pop();
    EXPECT_GE(popped.time, last);
    last = popped.time;
  }
}

TEST(EventQueue, CancelledIdCannotCancelTwice) {
  EventQueue q;
  EventId id = q.schedule_at(1, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(kInvalidEventId));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TombstonesStayBounded) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1024; ++i) {
    ids.push_back(q.schedule_at(static_cast<SimTime>(i), [] {}));
  }
  // A cancel-heavy workload: compaction must keep tombstones below half
  // the live count (modulo the small fixed floor below which compaction
  // does not bother).
  for (int i = 0; i < 960; ++i) {
    ASSERT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
    EXPECT_LE(q.tombstones(),
              std::max<std::size_t>(q.size() / 2, 16));
  }
  EXPECT_EQ(q.size(), 64u);
  // The survivors still pop in order.
  SimTime last = -1;
  std::size_t popped = 0;
  while (!q.empty()) {
    auto p = q.pop();
    EXPECT_GT(p.time, last);
    last = p.time;
    ++popped;
  }
  EXPECT_EQ(popped, 64u);
}

TEST(EventQueue, CancelInterleavedWithPops) {
  Rng rng(99);
  EventQueue q;
  std::vector<EventId> live;
  std::uint64_t executed = 0, cancelled = 0, scheduled = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 40; ++i) {
      live.push_back(q.schedule_at(
          static_cast<SimTime>(rng.next_below(500)), [&] { ++executed; }));
      ++scheduled;
    }
    for (int i = 0; i < 10 && !live.empty(); ++i) {
      const std::size_t pick = rng.next_below(live.size());
      if (q.cancel(live[pick])) ++cancelled;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    for (int i = 0; i < 20 && !q.empty(); ++i) q.pop().fn();
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(executed + cancelled, scheduled);
}

TEST(InlineFn, SmallCapturesStayCallableThroughMoves) {
  int hits = 0;
  InlineFn fn([&hits] { ++hits; });
  InlineFn moved(std::move(fn));
  InlineFn assigned;
  EXPECT_FALSE(static_cast<bool>(assigned));
  assigned = std::move(moved);
  ASSERT_TRUE(static_cast<bool>(assigned));
  assigned();
  assigned();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFn, LargeCapturesFallBackToHeapCorrectly) {
  std::array<std::uint64_t, 32> big{};  // 256 B: beyond the inline buffer
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * 7;
  std::uint64_t sum = 0;
  InlineFn fn([big, &sum] {
    for (std::uint64_t v : big) sum += v;
  });
  InlineFn moved(std::move(fn));
  moved();
  EXPECT_EQ(sum, 7u * (31u * 32u / 2u));
}

TEST(InlineFn, DestroysCapturedState) {
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  {
    InlineFn fn([token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(watch.expired());  // the closure still owns it
  }
  EXPECT_TRUE(watch.expired());  // destroying the fn released it
}

TEST(InlineFn, MoveAssignDestroysPreviousTarget) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  InlineFn fn([token] { (void)*token; });
  token.reset();
  fn = InlineFn([] {});
  EXPECT_TRUE(watch.expired());
  fn();  // replacement target is callable
}

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation sim;
  SimTime seen = -1;
  sim.schedule(nanoseconds(50), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, nanoseconds(50));
  EXPECT_EQ(sim.now(), nanoseconds(50));
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule(10, chain);
  };
  sim.schedule(10, chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(i * 100, [&] { ++count; });
  }
  sim.run_until(500);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 500);
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulation, RunUntilConditionStopsEarly) {
  Simulation sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(i * 100, [&] { ++count; });
  }
  const bool hit = sim.run_until_condition([&] { return count == 3; });
  EXPECT_TRUE(hit);
  EXPECT_EQ(count, 3);
}

TEST(Simulation, EventLimitGuardsAgainstStorms) {
  Simulation sim;
  sim.set_event_limit(100);
  std::function<void()> forever = [&] { sim.schedule(1, forever); };
  sim.schedule(1, forever);
  sim.run();
  EXPECT_TRUE(sim.event_limit_hit());
  EXPECT_EQ(sim.events_executed(), 100u);
}

TEST(Simulation, RunUntilDoesNotFenceAfterEarlyStop) {
  // Events before the deadline are still queued after an early stop; a
  // fenced clock would make the next step() run backwards in time.
  Simulation sim;
  sim.set_event_limit(3);
  for (int i = 1; i <= 10; ++i) sim.schedule(i * 100, [] {});
  sim.run_until(5000);
  EXPECT_TRUE(sim.event_limit_hit());
  EXPECT_EQ(sim.now(), 300);
  EXPECT_LE(sim.now(), sim.next_time());

  Simulation stopped;
  for (int i = 1; i <= 10; ++i) {
    stopped.schedule(i * 100, [&stopped, i] {
      if (i == 2) stopped.run_stop();
    });
  }
  stopped.run_until(5000);
  EXPECT_EQ(stopped.now(), 200);
  EXPECT_LE(stopped.now(), stopped.next_time());
  stopped.run_until(5000);
  EXPECT_EQ(stopped.now(), 5000);
  EXPECT_TRUE(stopped.idle());
}

TEST(Simulation, ScheduleAtClampsToNow) {
  Simulation sim;
  sim.schedule(100, [&] {
    // Scheduling in the past is clamped to the present, not time travel.
    sim.schedule_at(5, [&] { EXPECT_EQ(sim.now(), 100); });
  });
  sim.run();
}

// --- Coroutine layer -------------------------------------------------------

SimTask delays_then_sets(Simulation& sim, SimTime& t1, SimTime& t2) {
  co_await Delay{sim, nanoseconds(100)};
  t1 = sim.now();
  co_await Delay{sim, nanoseconds(50)};
  t2 = sim.now();
}

TEST(Coro, DelaysAdvanceTime) {
  Simulation sim;
  SimTime t1 = -1, t2 = -1;
  SimTask task = delays_then_sets(sim, t1, t2);
  sim.run();
  EXPECT_TRUE(task.done());
  EXPECT_EQ(t1, nanoseconds(100));
  EXPECT_EQ(t2, nanoseconds(150));
}

SimTask poller(Simulation& sim, const bool& flag, SimTime& when,
               std::uint64_t& probes) {
  probes = co_await PollUntil{sim, [&flag] { return flag; },
                              /*interval=*/nanoseconds(10)};
  when = sim.now();
}

TEST(Coro, PollUntilSeesLateFlag) {
  Simulation sim;
  bool flag = false;
  SimTime when = -1;
  std::uint64_t probes = 0;
  SimTask task = poller(sim, flag, when, probes);
  sim.schedule(nanoseconds(95), [&] { flag = true; });
  sim.run();
  EXPECT_TRUE(task.done());
  // Probes at 0,10,...,90 miss; the probe at 100 hits.
  EXPECT_EQ(when, nanoseconds(100));
  EXPECT_EQ(probes, 11u);
}

TEST(Coro, PollUntilChargesProbesBeforeTheFlagEvent) {
  Simulation sim;
  bool flag = false;
  SimTime when = -1;
  std::uint64_t probes = 0;
  SimTask task = poller(sim, flag, when, probes);
  sim.schedule(nanoseconds(95), [&] { flag = true; });
  sim.run();
  // The probe at 0 runs before run(), the one at 10 settles the loop,
  // the one at 20 jumps to 100: 30..90 are charged, not executed.
  EXPECT_EQ(probes, 11u);
  EXPECT_EQ(sim.probes_skipped(), 7u);
  EXPECT_EQ(sim.events_executed(), 12u);  // 10 probes + flag + resume
  EXPECT_EQ(sim.total_scheduled(), 12u);
}

SimTask waiter(Simulation& sim, Trigger& trig, int& order, int& my_rank) {
  co_await trig.wait(sim);
  my_rank = ++order;
}

TEST(Coro, TriggerWakesAllWaiters) {
  Simulation sim;
  Trigger trig;
  int order = 0;
  int rank_a = 0, rank_b = 0;
  SimTask a = waiter(sim, trig, order, rank_a);
  SimTask b = waiter(sim, trig, order, rank_b);
  sim.schedule(nanoseconds(30), [&] { trig.fire(); });
  sim.run();
  EXPECT_TRUE(a.done());
  EXPECT_TRUE(b.done());
  EXPECT_EQ(rank_a + rank_b, 3);  // both woke, in FIFO order 1 and 2
}

TEST(Coro, WaitOnFiredTriggerContinuesImmediately) {
  Simulation sim;
  Trigger trig;
  trig.fire();
  int order = 0, rank = 0;
  SimTask t = waiter(sim, trig, order, rank);
  sim.run();
  EXPECT_TRUE(t.done());
  EXPECT_EQ(rank, 1);
}

// --- Poll-loop fast-forward equivalence -----------------------------------

// The stepped poll loop, written with plain sim.schedule: every probe is
// an ordinary event, so nothing is ever skipped. It is the reference the
// fast-forwarding PollUntil must match event for event.
struct SteppedPoll {
  Simulation& sim;
  std::function<bool()> predicate;
  SimDuration interval;
  SimDuration probe_cost;

  std::coroutine_handle<> handle_{};
  std::uint64_t probes_ = 0;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    handle_ = h;
    step();
  }
  std::uint64_t await_resume() const noexcept { return probes_; }

  void step() {
    ++probes_;
    if (predicate()) {
      sim.schedule(probe_cost, [h = handle_]() mutable { h.resume(); });
      return;
    }
    sim.schedule(interval, [this] { step(); });
  }
};

struct PollerPlan {
  SimDuration interval;
  SimDuration start;  // 0: first probe from driver code, before any run
  SimDuration cost;
  int flag;  // index of the flag it waits on; pollers may share one
  std::vector<SimDuration> gaps;  // pause after each satisfied wait
  int wake_bump = -1;  // flag it bumps each time it wakes; -1: none
};
struct EventPlan {
  SimTime when;
  int flag;  // -1: a plain event that writes nothing
};
struct DriverStep {
  SimTime deadline;  // run_until argument
  int write_flag;    // -1: none; else bumped by driver code after the run
  SimDuration event_delay;  // < 0: none; else a plain event from driver code
  int event_flag;
};
struct Scenario {
  std::vector<PollerPlan> pollers;
  std::vector<EventPlan> events;
  std::vector<DriverStep> steps;
  std::uint64_t event_limit;  // 0: none
};

using KeyRec = std::tuple<SimTime, SimTime, EventId>;
struct Observed {
  // (poller id, resume time, probe count) per satisfied wait
  std::vector<std::tuple<int, SimTime, std::uint64_t>> resumes;
  std::vector<KeyRec> plain_keys;  // every plain event the scenario ran
  std::vector<std::array<std::uint64_t, 4>> returns;  // now, sched, exec, hit
  std::uint64_t skipped = 0;  // host-only, not compared
};

struct PollWorld {
  Simulation sim;
  std::vector<std::uint64_t> flags;
  Observed obs;
  void note_key() {
    const EventQueue::Key& k = sim.current_key();
    obs.plain_keys.emplace_back(k.time, k.birth_time, k.birth_tag);
  }
};

std::function<bool()> flag_reaches(PollWorld& w, int id,
                                   std::uint64_t target) {
  return [&w, id, target] {
    return w.flags[static_cast<std::size_t>(id)] >= target;
  };
}

SimTask scenario_poller(PollWorld& w, const PollerPlan& p, int id,
                        bool stepped) {
  if (p.start > 0) {
    co_await Delay{w.sim, p.start};
    w.note_key();
  }
  for (std::size_t r = 0; r < p.gaps.size(); ++r) {
    // Named awaiters: GCC 12 destroys a braced awaiter temporary with a
    // std::function member twice when the co_await sits in a loop.
    std::uint64_t probes = 0;
    if (stepped) {
      SteppedPoll poll{w.sim, flag_reaches(w, p.flag, r + 1), p.interval,
                       p.cost};
      probes = co_await poll;
    } else {
      PollUntil poll{w.sim, flag_reaches(w, p.flag, r + 1), p.interval,
                     p.cost};
      probes = co_await poll;
    }
    w.note_key();
    w.obs.resumes.emplace_back(id, w.sim.now(), probes);
    if (p.wake_bump >= 0) ++w.flags[static_cast<std::size_t>(p.wake_bump)];
    if (p.gaps[r] > 0) {
      co_await Delay{w.sim, p.gaps[r]};
      w.note_key();
    }
  }
}

Observed run_scenario(const Scenario& sc, bool stepped) {
  PollWorld w;
  w.flags.assign(sc.pollers.size(), 0);
  if (sc.event_limit != 0) w.sim.set_event_limit(sc.event_limit);
  auto bump = [&w](int flag) {
    return [&w, flag] {
      w.note_key();
      if (flag >= 0) ++w.flags[static_cast<std::size_t>(flag)];
    };
  };
  for (const EventPlan& e : sc.events) w.sim.schedule_at(e.when, bump(e.flag));
  std::vector<SimTask> tasks;
  for (std::size_t i = 0; i < sc.pollers.size(); ++i) {
    tasks.push_back(
        scenario_poller(w, sc.pollers[i], static_cast<int>(i), stepped));
  }
  auto note_return = [&w] {
    w.obs.returns.push_back(
        {static_cast<std::uint64_t>(w.sim.now()), w.sim.total_scheduled(),
         w.sim.events_executed(), w.sim.event_limit_hit() ? 1u : 0u});
  };
  for (const DriverStep& st : sc.steps) {
    w.sim.run_until(st.deadline);
    note_return();
    if (st.write_flag >= 0) ++w.flags[static_cast<std::size_t>(st.write_flag)];
    if (st.event_delay >= 0) {
      w.sim.schedule(st.event_delay, bump(st.event_flag));
    }
  }
  w.sim.run();
  note_return();
  // A tripped limit leaves pollers waiting; lift it and finish, so the
  // runs stay comparable past the trip and no coroutine frame leaks.
  w.sim.set_event_limit(std::numeric_limits<std::uint64_t>::max());
  w.sim.run();
  note_return();
  for (const SimTask& t : tasks) EXPECT_TRUE(t.done());
  w.obs.skipped = w.sim.probes_skipped();
  return std::move(w.obs);
}

Scenario draw_scenario(std::uint64_t seed) {
  Rng rng(seed);
  auto pick = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return static_cast<SimTime>(lo + rng.next_below(hi - lo + 1));
  };
  Scenario sc;
  const int n = static_cast<int>(pick(1, 4));
  const SimDuration intervals[] = {10, 10, 15, 20};
  const SimDuration starts[] = {0, 0, 5, 37};
  // Half the scenarios put every poller in one phase class, where only
  // tags order their same-time probes.
  const bool one_class = rng.next_below(2) == 0;
  for (int i = 0; i < n; ++i) {
    PollerPlan p;
    p.interval = one_class ? 10 : intervals[rng.next_below(4)];
    p.start = one_class ? 0 : starts[rng.next_below(4)];
    const SimDuration costs[] = {0, p.interval, 3 * p.interval};
    p.cost = costs[rng.next_below(3)];
    p.flag = rng.next_below(3) == 0 ? 0 : i;
    p.wake_bump = rng.next_below(4) == 0 ? static_cast<int>(rng.next_below(n))
                                         : -1;
    const int rounds = static_cast<int>(pick(1, 3));
    for (int r = 0; r < rounds; ++r) {
      p.gaps.push_back(rng.next_below(3) == 0 ? 0 : pick(1, 40));
      sc.events.push_back({pick(1, 1500), p.flag});
    }
    sc.pollers.push_back(p);
  }
  const int noise = static_cast<int>(pick(0, 3));
  for (int i = 0; i < noise; ++i) sc.events.push_back({pick(1, 1500), -1});
  // Two events at one timestamp.
  sc.events.push_back({sc.events[rng.next_below(sc.events.size())].when,
                       static_cast<int>(rng.next_below(n + 1)) - 1});
  SimTime deadline = 0;
  const int steps = static_cast<int>(pick(0, 5));
  for (int i = 0; i < steps; ++i) {
    deadline += pick(1, 500);
    DriverStep st;
    st.deadline = deadline;
    st.write_flag = rng.next_below(3) == 0 ? static_cast<int>(rng.next_below(n))
                                           : -1;
    st.event_delay = rng.next_below(3) == 0 ? pick(0, 200) : -1;
    st.event_flag = static_cast<int>(rng.next_below(n + 1)) - 1;
    sc.steps.push_back(st);
  }
  sc.event_limit = rng.next_below(3) == 0 ? pick(20, 300) : 0;
  return sc;
}

TEST(PollFastForward, PropertyMatchesSteppedLoop) {
  std::uint64_t skipped = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Scenario sc = draw_scenario(seed);
    const Observed ref = run_scenario(sc, /*stepped=*/true);
    const Observed got = run_scenario(sc, /*stepped=*/false);
    EXPECT_EQ(ref.skipped, 0u);
    ASSERT_EQ(got.resumes, ref.resumes);
    ASSERT_EQ(got.returns, ref.returns);
    ASSERT_EQ(got.plain_keys, ref.plain_keys);
    skipped += got.skipped;
  }
  EXPECT_GT(skipped, 0u);  // the property is not vacuous
}

TEST(PollFastForward, NothingSkippedWithoutPlainEventOrDeadline) {
  // Stepping spins until the event limit; a jump would have no landing.
  for (bool stepped : {true, false}) {
    SCOPED_TRACE(stepped ? "stepped" : "fast-forward");
    PollWorld w;
    w.flags.assign(1, 0);
    w.sim.set_event_limit(1000);
    const PollerPlan plan{10, 0, 10, 0, {0}};
    SimTask t = scenario_poller(w, plan, 0, stepped);
    w.sim.run();
    EXPECT_TRUE(w.sim.event_limit_hit());
    EXPECT_EQ(w.sim.events_executed(), 1000u);
    EXPECT_EQ(w.sim.total_scheduled(), 1001u);
    EXPECT_EQ(w.sim.now(), 10000);
    EXPECT_EQ(w.sim.probes_skipped(), 0u);
    w.flags[0] = 1;
    w.sim.set_event_limit(std::numeric_limits<std::uint64_t>::max());
    w.sim.run();
    EXPECT_TRUE(t.done());
  }
}

TEST(PollFastForward, EventLimitTripsAtTheSteppedCount) {
  // A plain event far ahead, then the flag: the first gap is skipped,
  // and the limit trips inside the second exactly where stepping trips.
  Scenario sc;
  sc.pollers.push_back(PollerPlan{10, 0, 10, 0, {0}});
  sc.events = {{1000, -1}, {5000, 0}};
  sc.event_limit = 150;
  const Observed ref = run_scenario(sc, /*stepped=*/true);
  const Observed got = run_scenario(sc, /*stepped=*/false);
  EXPECT_EQ(got.returns, ref.returns);
  EXPECT_EQ(got.resumes, ref.resumes);
  EXPECT_EQ(got.plain_keys, ref.plain_keys);
  EXPECT_EQ(ref.returns.front()[2], 150u);  // executed at the trip
  EXPECT_EQ(ref.returns.front()[3], 1u);
  EXPECT_GT(got.skipped, 0u);
}

TEST(PollFastForward, LoopEndingBetweenSameTimePeersRestartsTheSettle) {
  // Four loops in one phase class probe in the order A, B, D, C. D wakes
  // at 90 between B's and C's probes and bumps B's flag, so at 100 B's
  // probe succeeds between A's and D's. Its loop ending leaves only
  // settled loops, but A has already probed at 100 without skipping: D
  // and C must not skip at 100 either, or their landing probes at 130
  // would order ahead of A's and A and C would wake in swapped order.
  Scenario sc;
  sc.pollers = {
      PollerPlan{10, 0, 10, 0, {0}},        // A
      PollerPlan{10, 0, 30, 1, {0}},        // B: wakes 30 after its probe
      PollerPlan{10, 0, 10, 2, {0, 0}, 1},  // D: bumps B's flag on waking
      PollerPlan{10, 0, 10, 0, {0}},        // C: shares A's flag
  };
  sc.events = {{75, 2}, {130, 0}, {200, 2}};
  sc.event_limit = 0;
  const Observed ref = run_scenario(sc, /*stepped=*/true);
  const Observed got = run_scenario(sc, /*stepped=*/false);
  EXPECT_EQ(got.resumes, ref.resumes);
  EXPECT_EQ(got.plain_keys, ref.plain_keys);
  EXPECT_EQ(got.returns, ref.returns);
  EXPECT_GT(got.skipped, 0u);
}

}  // namespace
}  // namespace pg::sim
