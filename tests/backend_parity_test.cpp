// Backend parity: the heap and calendar-queue Scheduler backends
// must be observationally identical — same execution order, same now() at
// every callback, same events_executed(), same cancel() results — for any
// event script a simulation can produce. The script below mixes bulk
// scheduling, re-entrant scheduling from callbacks, random cancellation
// (including from inside callbacks), run_until() phases, and
// next_event_time() probes between phases. A second, Timer-heavy script
// keeps most queued entries in the heap backend's timer heap while packet
// events come and go in its event heap; the calendar holds both in one queue.
// A third drives persistent slots the way link wires do.

#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/timer.hpp"

namespace rss::sim {
namespace {

using namespace rss::sim::literals;

struct ParityPlan {
  std::uint64_t seed;
  std::size_t events;
  std::int64_t horizon_ns;
};

/// Everything observable about one run, for exact comparison.
struct RunTrace {
  std::vector<std::pair<std::int64_t, std::size_t>> fired;  // (now at firing, label)
  std::vector<bool> cancel_results;
  std::vector<std::int64_t> probes;  // next_event_time() between phases
  std::int64_t final_now{};
  std::uint64_t executed{};
  std::size_t pending{};
};

RunTrace drive(QueueBackend backend, const ParityPlan& plan) {
  Scheduler s{backend};
  Rng rng{plan.seed};
  RunTrace trace;
  std::vector<EventId> ids;
  std::size_t next_label = 0;

  const auto record = [&trace, &s](std::size_t label) {
    trace.fired.emplace_back(s.now().nanoseconds_count(), label);
  };
  // Re-entrant body: fires, then sometimes schedules a child or cancels a
  // random earlier event from inside the callback. All rng draws happen in
  // callback execution order, so divergent order also diverges the script —
  // any parity break cascades into an obvious trace mismatch.
  const std::function<void(std::size_t)> body = [&](std::size_t label) {
    record(label);
    if (rng.next_bool(0.3)) {
      const std::size_t child = next_label++;
      const Time at = s.now() + Time::nanoseconds(static_cast<std::int64_t>(
                                    rng.next_in(0, 1'000'000)));
      ids.push_back(s.schedule_at(at, [&body, child] { body(child); }));
    }
    if (rng.next_bool(0.15) && !ids.empty()) {
      const auto victim = rng.next_in(0, ids.size() - 1);
      trace.cancel_results.push_back(s.cancel(ids[victim]));
    }
  };

  // Phase 1: bulk schedule across the whole horizon.
  for (std::size_t i = 0; i < plan.events; ++i) {
    const std::size_t label = next_label++;
    const Time at = Time::nanoseconds(
        static_cast<std::int64_t>(rng.next_in(0, static_cast<std::uint64_t>(plan.horizon_ns))));
    ids.push_back(s.schedule_at(at, [&body, label] { body(label); }));
  }
  // Random up-front cancellations, some of which will later be re-cancelled.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (rng.next_bool(0.2)) trace.cancel_results.push_back(s.cancel(ids[i]));
  }
  trace.probes.push_back(s.next_event_time().nanoseconds_count());

  // Phase 2: run the first half of the horizon, then schedule more events
  // into the still-open window (exercises the calendar's monotonic floor).
  s.run_until(Time::nanoseconds(plan.horizon_ns / 2));
  trace.probes.push_back(s.next_event_time().nanoseconds_count());
  for (std::size_t i = 0; i < plan.events / 4; ++i) {
    const std::size_t label = next_label++;
    const Time at = s.now() + Time::nanoseconds(static_cast<std::int64_t>(
                                  rng.next_in(0, static_cast<std::uint64_t>(plan.horizon_ns))));
    ids.push_back(s.schedule_at(at, [&body, label] { body(label); }));
  }

  // Phase 3: cancel a batch (mix of fired, pending, and already-cancelled).
  for (std::size_t i = 0; i < ids.size(); i += 7) {
    trace.cancel_results.push_back(s.cancel(ids[i]));
  }
  trace.probes.push_back(s.next_event_time().nanoseconds_count());

  // Phase 4: drain.
  s.run();
  trace.final_now = s.now().nanoseconds_count();
  trace.executed = s.events_executed();
  trace.pending = s.pending();
  return trace;
}

class BackendParityTest : public ::testing::TestWithParam<ParityPlan> {};

TEST_P(BackendParityTest, CalendarMatchesHeapExactly) {
  const auto heap = drive(QueueBackend::kBinaryHeap, GetParam());
  const auto cal = drive(QueueBackend::kCalendarQueue, GetParam());

  ASSERT_EQ(heap.fired.size(), cal.fired.size());
  for (std::size_t i = 0; i < heap.fired.size(); ++i) {
    EXPECT_EQ(heap.fired[i], cal.fired[i]) << "firing " << i;
  }
  EXPECT_EQ(heap.cancel_results, cal.cancel_results);
  EXPECT_EQ(heap.probes, cal.probes);
  EXPECT_EQ(heap.final_now, cal.final_now);
  EXPECT_EQ(heap.executed, cal.executed);
  EXPECT_EQ(heap.pending, cal.pending);
}

/// Many TCP-like flows on one scheduler. Each packet event re-arms a random
/// flow's timer, mostly later (its wake-up goes stale and re-queues itself,
/// as a retransmission timer does on every ACK), sometimes earlier (cancel
/// and re-queue) or not at all (disarm), and schedules the next packets; a
/// timer that fires re-arms itself and sends. Inside some callbacks
/// next_event_time() is probed with the fired entry's hole in either heap.
RunTrace drive_timers(QueueBackend backend, const ParityPlan& plan) {
  constexpr std::size_t kFlows = 48;
  constexpr std::size_t kTimerLabel = 1'000'000;
  Scheduler s{backend};
  Rng rng{plan.seed};
  RunTrace trace;
  std::vector<EventId> ids;
  std::size_t budget = plan.events;
  std::size_t next_label = 0;
  const auto soon = [&] {
    return Time::nanoseconds(
        static_cast<std::int64_t>(rng.next_in(0, static_cast<std::uint64_t>(plan.horizon_ns))));
  };
  const auto record = [&](std::size_t label) {
    trace.fired.emplace_back(s.now().nanoseconds_count(), label);
    if (label % 16 == 0) trace.probes.push_back(s.next_event_time().nanoseconds_count());
  };

  struct Flow {
    const std::function<void(std::size_t)>* on_timeout{nullptr};
    std::size_t index{0};
    std::optional<Timer> rto;
    static void fire(void* self) {
      const auto* flow = static_cast<Flow*>(self);
      (*flow->on_timeout)(flow->index);
    }
  };
  std::vector<Flow> flows(kFlows);

  std::function<void(std::size_t)> packet;
  const auto send = [&] {
    if (budget == 0) return;
    --budget;
    const std::size_t label = next_label++;
    ids.push_back(s.schedule_in(soon(), [&packet, label] { packet(label); }));
  };
  packet = [&](std::size_t label) {
    record(label);
    Timer& rto = *flows[rng.next_in(0, kFlows - 1)].rto;
    const auto op = rng.next_in(0, 9);
    if (op < 7) {
      rto.arm_in(soon() * 8 + Time::nanoseconds(plan.horizon_ns));
    } else if (op < 9) {
      rto.arm_in(soon());
    } else {
      rto.disarm();
    }
    send();
    if (rng.next_bool(0.4)) send();
    if (rng.next_bool(0.05) && !ids.empty()) {
      trace.cancel_results.push_back(s.cancel(ids[rng.next_in(0, ids.size() - 1)]));
    }
  };
  const std::function<void(std::size_t)> on_timeout = [&](std::size_t flow) {
    record(kTimerLabel + flow);
    if (budget > 0) flows[flow].rto->arm_in(soon() * 4);
    send();
  };
  for (std::size_t i = 0; i < kFlows; ++i) {
    flows[i].on_timeout = &on_timeout;
    flows[i].index = i;
    flows[i].rto.emplace(s, &flows[i], &Flow::fire);
    flows[i].rto->arm_in(soon() * 8);
  }
  for (int i = 0; i < 8; ++i) send();

  s.run_until(Time::nanoseconds(plan.horizon_ns * 4));
  trace.probes.push_back(s.next_event_time().nanoseconds_count());
  s.run();
  trace.final_now = s.now().nanoseconds_count();
  trace.executed = s.events_executed();
  trace.pending = s.pending();
  return trace;
}

TEST_P(BackendParityTest, TimerHeavyScriptMatchesExactly) {
  const auto heap = drive_timers(QueueBackend::kBinaryHeap, GetParam());
  const auto cal = drive_timers(QueueBackend::kCalendarQueue, GetParam());

  ASSERT_EQ(heap.fired.size(), cal.fired.size());
  for (std::size_t i = 0; i < heap.fired.size(); ++i) {
    ASSERT_EQ(heap.fired[i], cal.fired[i]) << "firing " << i;
  }
  EXPECT_EQ(heap.cancel_results, cal.cancel_results);
  EXPECT_EQ(heap.probes, cal.probes);
  EXPECT_EQ(heap.final_now, cal.final_now);
  EXPECT_EQ(heap.executed, cal.executed);
  EXPECT_EQ(heap.pending, 0u);
  EXPECT_EQ(cal.pending, 0u);
  // The script has to reach the timer heap: wake-ups fire, and stale ones
  // re-queue, so more events run than packets and timeouts fired.
  EXPECT_GT(heap.executed, heap.fired.size());
}

/// Link-wire-like owners of persistent slots. Packet events put keys on
/// random wires; a wire keeps only its earliest key armed in its slot,
/// re-keys the slot when a new key overtakes it (from another event's
/// callback, so the fired entry's hole is open), re-arms its next key from
/// its own firing and now and then drops everything (disarm). cancel() of
/// a wire's slot fails on both backends.
RunTrace drive_persistent(QueueBackend backend, const ParityPlan& plan) {
  constexpr std::size_t kWires = 6;
  constexpr std::size_t kWireLabel = 1'000'000;
  Scheduler s{backend};
  Rng rng{plan.seed};
  RunTrace trace;
  std::size_t budget = plan.events;
  std::size_t next_label = 0;
  const auto soon = [&] {
    return Time::nanoseconds(
        static_cast<std::int64_t>(rng.next_in(0, static_cast<std::uint64_t>(plan.horizon_ns))));
  };
  const auto record = [&](std::size_t label) {
    trace.fired.emplace_back(s.now().nanoseconds_count(), label);
    if (label % 16 == 0) trace.probes.push_back(s.next_event_time().nanoseconds_count());
  };

  struct Wire {
    Scheduler* s{nullptr};
    const std::function<void(std::size_t)>* on_delivery{nullptr};
    EventId slot;
    std::vector<std::pair<EventEntry, std::size_t>> keys;  // (key, label), key order
    void arm_head() {
      if (keys.empty()) {
        s->disarm_persistent(slot);
        return;
      }
      const EventEntry& key = keys.front().first;
      s->arm_persistent(slot, key.origin, key.seq, key.birth, key.at);
    }
    void push(const EventEntry& key, std::size_t label) {
      auto it = keys.begin();
      while (it != keys.end() && !event_entry_before(key, it->first)) ++it;
      const bool head = it == keys.begin();
      keys.insert(it, {key, label});
      if (head) arm_head();
    }
    static void fire(void* self) {
      auto* wire = static_cast<Wire*>(self);
      const std::size_t label = wire->keys.front().second;
      wire->keys.erase(wire->keys.begin());
      wire->arm_head();
      (*wire->on_delivery)(label);
    }
  };
  std::vector<Wire> wires(kWires);

  std::function<void(std::size_t)> packet;
  const auto send = [&] {
    if (budget == 0) return;
    --budget;
    const std::size_t label = next_label++;
    if (rng.next_bool(0.5)) {
      // A delivery: tagged or untagged, born now or in the past.
      Wire& wire = wires[rng.next_in(0, kWires - 1)];
      const auto origin = static_cast<std::uint32_t>(rng.next_in(0, 2));
      const Time birth = rng.next_bool(0.5) ? s.now() : s.now() - std::min(s.now(), soon());
      wire.push(EventEntry{s.now() + soon(), birth, s.draw_rank(origin), 0, origin}, label);
    } else {
      s.schedule_in(soon(), [&packet, label] { packet(label); });
    }
  };
  packet = [&](std::size_t label) {
    record(label);
    send();
    if (rng.next_bool(0.4)) send();
    Wire& wire = wires[rng.next_in(0, kWires - 1)];
    if (rng.next_bool(0.05)) {
      wire.keys.clear();
      wire.arm_head();
    }
    if (rng.next_bool(0.05)) trace.cancel_results.push_back(s.cancel(wire.slot));
  };
  const std::function<void(std::size_t)> on_delivery = [&](std::size_t label) {
    record(kWireLabel + label);
    send();
  };
  for (std::size_t i = 0; i < kWires; ++i) {
    wires[i].s = &s;
    wires[i].on_delivery = &on_delivery;
    wires[i].slot = s.add_persistent(&Wire::fire, &wires[i]);
  }
  for (int i = 0; i < 8; ++i) send();

  s.run_until(Time::nanoseconds(plan.horizon_ns * 4));
  trace.probes.push_back(s.next_event_time().nanoseconds_count());
  s.run();
  trace.final_now = s.now().nanoseconds_count();
  trace.executed = s.events_executed();
  trace.pending = s.pending();
  return trace;
}

TEST_P(BackendParityTest, PersistentSlotScriptMatchesExactly) {
  const auto heap = drive_persistent(QueueBackend::kBinaryHeap, GetParam());
  const auto cal = drive_persistent(QueueBackend::kCalendarQueue, GetParam());

  ASSERT_EQ(heap.fired.size(), cal.fired.size());
  for (std::size_t i = 0; i < heap.fired.size(); ++i) {
    ASSERT_EQ(heap.fired[i], cal.fired[i]) << "firing " << i;
  }
  EXPECT_EQ(heap.cancel_results, cal.cancel_results);
  for (const bool cancelled : heap.cancel_results) EXPECT_FALSE(cancelled);
  EXPECT_EQ(heap.probes, cal.probes);
  EXPECT_EQ(heap.final_now, cal.final_now);
  EXPECT_EQ(heap.executed, cal.executed);
  EXPECT_EQ(heap.executed, heap.fired.size());
  EXPECT_EQ(heap.pending, 0u);
  EXPECT_EQ(cal.pending, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Plans, BackendParityTest,
    ::testing::Values(ParityPlan{11, 200, 1'000},           // dense ties
                      ParityPlan{12, 1'000, 1'000'000},     // typical
                      ParityPlan{13, 3'000, 100},           // extreme tie pressure
                      ParityPlan{14, 800, 1'000'000'000},   // sparse far-future
                      ParityPlan{15, 500, 50'000}),
    [](const ::testing::TestParamInfo<ParityPlan>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.events);
    });

// The calendar backend must survive the pattern that breaks a naive lazy-
// cancellation port: cancel the only (future) event, probe next_event_time,
// then schedule *earlier* than the cancelled event's timestamp.
TEST(BackendParityTest, CalendarScheduleBelowCancelledFutureEvent) {
  Scheduler s{QueueBackend::kCalendarQueue};
  const EventId far = s.schedule_at(10_ms, [] { FAIL() << "cancelled event fired"; });
  EXPECT_TRUE(s.cancel(far));
  EXPECT_EQ(s.next_event_time(), Time::infinity());
  bool fired = false;
  s.schedule_at(1_ms, [&fired] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), 1_ms);
  EXPECT_EQ(s.events_executed(), 1u);
}

// run_until(infinity) must drain the queue and return — "no events left"
// has to terminate the loop even though no event time exceeds infinity —
// and per the documented contract ("events at exactly `until` do fire") an
// event scheduled at the infinity sentinel itself still fires.
TEST(BackendParityTest, RunUntilInfinityDrainsAndReturns) {
  for (const auto backend : {QueueBackend::kBinaryHeap, QueueBackend::kCalendarQueue}) {
    Scheduler s{backend};
    int fired = 0;
    s.schedule_at(1_ms, [&fired] { ++fired; });
    s.schedule_at(2_ms, [&fired] { ++fired; });
    s.schedule_at(Time::infinity(), [&fired] { ++fired; });
    s.run_until(Time::infinity());
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(s.now(), Time::infinity());
    EXPECT_TRUE(s.empty());
  }
}

TEST(BackendParityTest, SimulationSelectsBackend) {
  Simulation sim{42, QueueBackend::kCalendarQueue};
  EXPECT_EQ(sim.scheduler().backend(), QueueBackend::kCalendarQueue);
  std::vector<int> order;
  sim.at(2_ms, [&order] { order.push_back(2); });
  sim.at(1_ms, [&order] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 2_ms);
}

}  // namespace
}  // namespace rss::sim
