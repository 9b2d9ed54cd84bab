#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/simulation.hpp"

namespace rss::sim {
namespace {

using namespace rss::sim::literals;

TEST(SchedulerTest, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(3_ms, [&] { order.push_back(3); });
  s.schedule_at(1_ms, [&] { order.push_back(1); });
  s.schedule_at(2_ms, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3_ms);
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(SchedulerTest, SameTimestampFiresInInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) s.schedule_at(5_ms, [&order, i] { order.push_back(i); });
  s.run();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SchedulerTest, RejectsPastAndNullEvents) {
  Scheduler s;
  s.schedule_at(10_ms, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(5_ms, [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule_at(20_ms, Scheduler::Callback{}), std::invalid_argument);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  const EventId id = s.schedule_at(1_ms, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(SchedulerTest, CancelIsIdempotentAndSafeOnFiredEvents) {
  Scheduler s;
  const EventId id = s.schedule_at(1_ms, [] {});
  s.run();
  EXPECT_FALSE(s.cancel(id));         // already fired
  EXPECT_FALSE(s.cancel(id));         // idempotent
  EXPECT_FALSE(s.cancel(EventId{}));  // default id is inert
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTest, PendingTracksLiveEventsOnly) {
  Scheduler s;
  const EventId a = s.schedule_at(1_ms, [] {});
  s.schedule_at(2_ms, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerTest, RunUntilAdvancesClockToHorizon) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(1_ms, [&] { ++fired; });
  s.schedule_at(10_ms, [&] { ++fired; });
  s.run_until(5_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 5_ms);  // clock advances even with no event at 5ms
  s.run_until(10_ms);        // boundary event does fire
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, EventsScheduledDuringExecutionRun) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_in(1_ms, recurse);
  };
  s.schedule_at(0_ms, recurse);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), 4_ms);
}

TEST(SchedulerTest, StopHaltsRun) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(1_ms, [&] {
    ++fired;
    s.stop();
  });
  s.schedule_at(2_ms, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, NextEventTimeSkipsCancelled) {
  Scheduler s;
  const EventId a = s.schedule_at(1_ms, [] {});
  s.schedule_at(2_ms, [] {});
  s.cancel(a);
  EXPECT_EQ(s.next_event_time(), 2_ms);
  s.run();
  EXPECT_EQ(s.next_event_time(), Time::infinity());
}

TEST(SchedulerTest, CancelFromInsideCallback) {
  Scheduler s;
  bool late_fired = false;
  EventId late;
  late = s.schedule_at(2_ms, [&] { late_fired = true; });
  s.schedule_at(1_ms, [&] { EXPECT_TRUE(s.cancel(late)); });
  s.run();
  EXPECT_FALSE(late_fired);
}

TEST(SchedulerTest, StepSingleSteps) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(1_ms, [&] { ++fired; });
  s.schedule_at(2_ms, [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, StaleIdCannotCancelSlotReuser) {
  // Generation-checked ids: after cancel, the arena slot is recycled by the
  // next schedule — a stale handle to the first event must not be able to
  // cancel (or even observe) its successor.
  Scheduler s;
  bool fired = false;
  const EventId first = s.schedule_at(1_ms, [] {});
  EXPECT_TRUE(s.cancel(first));
  const EventId second = s.schedule_at(1_ms, [&fired] { fired = true; });
  EXPECT_EQ(s.arena_slots(), 1u);  // second reused first's slot
  EXPECT_NE(first, second);
  EXPECT_FALSE(s.cancel(first));  // stale: generation mismatch
  s.run();
  EXPECT_TRUE(fired);
}

TEST(SchedulerTest, ArenaStaysFlatUnderRescheduleStorm) {
  // The per-ACK RTO pattern must not grow memory: the arena's size is the
  // high-water mark of *simultaneously pending* events, not of scheduling
  // traffic. This is the pending-set assertion replacing the old live_ map
  // (which paid a hash-map node with a Time per event even on the heap
  // backend, where the value was never read).
  for (const auto backend : {QueueBackend::kBinaryHeap, QueueBackend::kCalendarQueue}) {
    Scheduler s{backend};
    EventId pending{};
    for (int i = 0; i < 10'000; ++i) {
      if (pending.valid()) s.cancel(pending);
      pending = s.schedule_at(Time::nanoseconds(i + 1), [] {});
    }
    EXPECT_EQ(s.pending(), 1u);
    EXPECT_EQ(s.arena_slots(), 1u);
    s.run();
    EXPECT_EQ(s.pending(), 0u);
    EXPECT_EQ(s.events_executed(), 1u);
  }
}

TEST(SchedulerTest, CancelLeavesNoDeadEntriesInTheQueue) {
  // Eager cancellation: a cancelled event leaves the queue at once. Each
  // re-arm lands earlier than the timer it replaces (the RTO shrinking as
  // RTT samples come in) and happens before the old timer is cancelled, so
  // every cancelled entry sits below the live top — where a lazily-
  // cancelling queue would keep all 10k of them until their times came
  // round.
  for (const auto backend : {QueueBackend::kBinaryHeap, QueueBackend::kCalendarQueue}) {
    Scheduler s{backend};
    EventId rto = s.schedule_at(200_ms, [] {});
    for (int i = 1; i < 10'000; ++i) {
      const EventId rearmed = s.schedule_at(200_ms - Time::nanoseconds(i), [] {});
      ASSERT_TRUE(s.cancel(rto));
      rto = rearmed;
      ASSERT_EQ(s.pending(), 1u);
      ASSERT_EQ(s.queued_entries(), 1u) << "after " << i << " re-arms";
    }
    EXPECT_EQ(s.next_event_time(), 200_ms - Time::nanoseconds(9'999));
    s.run();
    EXPECT_EQ(s.events_executed(), 1u);
    EXPECT_EQ(s.queued_entries(), 0u);
  }
}

TEST(SchedulerTest, ThrowingCallbackLeavesNoPhantomEvent) {
  // A callback that throws ends its event: a one-shot has fired, and a
  // persistent slot stays disarmed unless its handler re-armed it. The
  // queue must then hold exactly the pending events — with the fired
  // entry's root hole closed — or run_until would spin on a pending event
  // that nothing queued will ever fire.
  for (const auto backend : {QueueBackend::kBinaryHeap, QueueBackend::kCalendarQueue}) {
    SCOPED_TRACE(backend == QueueBackend::kBinaryHeap ? "heap" : "calendar");
    for (const bool persistent : {false, true}) {
      for (const bool later_event : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << (persistent ? "persistent" : "one-shot") << ", later " << later_event);
        Scheduler s{backend};
        int fired = 0;
        EventId slot{};
        if (persistent) {
          slot = s.add_persistent([](void*) { throw std::runtime_error{"handler failed"}; },
                                  nullptr);
          s.arm_persistent(slot, 0, s.draw_rank(0), Time::zero(), 1_us);
        } else {
          s.schedule_at(1_us, [] { throw std::runtime_error{"callback failed"}; });
        }
        if (later_event) s.schedule_at(5_us, [&fired] { ++fired; });
        EXPECT_THROW(s.step(), std::runtime_error);
        const std::size_t left = later_event ? 1 : 0;
        ASSERT_EQ(s.pending(), left);
        ASSERT_EQ(s.queued_entries(), left);
        ASSERT_EQ(s.empty(), !later_event);
        EXPECT_EQ(s.next_event_time(), later_event ? 5_us : Time::infinity());
        s.run_until(Time::infinity());
        EXPECT_EQ(fired, later_event ? 1 : 0);
        EXPECT_TRUE(s.empty());
        EXPECT_EQ(s.queued_entries(), 0u);
        if (persistent) {
          // Disarmed, but still the owner's: it can be armed again.
          s.disarm_persistent(slot);
          EXPECT_TRUE(s.empty());
        }
      }
    }
  }
}

TEST(SchedulerTest, CallbackMayStepTheSchedulerItself) {
  // A callback that runs the scheduler re-enters step() while its own
  // entry is still the heap's root hole; the nested step must not fire it
  // again.
  for (const auto backend : {QueueBackend::kBinaryHeap, QueueBackend::kCalendarQueue}) {
    Scheduler s{backend};
    std::vector<int> order;
    s.schedule_at(1_ms, [&] {
      order.push_back(1);
      s.run_until(2_ms);
      order.push_back(3);
    });
    s.schedule_at(2_ms, [&] { order.push_back(2); });
    s.schedule_at(4_ms, [&] { order.push_back(4); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(s.queued_entries(), 0u);
  }
}

TEST(SimulationTest, EveryRepeatsUntilFalse) {
  Simulation sim;
  std::vector<Time> ticks;
  sim.every(10_ms, [&](Time now) {
    ticks.push_back(now);
    return ticks.size() < 3;
  });
  sim.run();
  ASSERT_EQ(ticks.size(), 3u);
  EXPECT_EQ(ticks[0], 10_ms);
  EXPECT_EQ(ticks[1], 20_ms);
  EXPECT_EQ(ticks[2], 30_ms);
}

TEST(SimulationTest, RunForIsRelative) {
  Simulation sim;
  sim.run_until(5_ms);
  sim.run_for(10_ms);
  EXPECT_EQ(sim.now(), 15_ms);
}

}  // namespace
}  // namespace rss::sim
