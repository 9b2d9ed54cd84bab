// Property suite for the event core: randomized schedules must execute in
// exact (time, insertion) order under both the heap Scheduler and
// the CalendarQueue, and the two structures must agree item for item.
// Also covers the allocation-free machinery underneath: slot-arena reuse
// under reschedule storms and sim::Timer churn. A lockstep reference model
// drives both ways to queue an event (one-shots and persistent slots, the
// latter also as sim::Timer wake-ups), with cancels from anywhere, against
// both backends and checks each firing against event_entry_before.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace rss::sim {
namespace {

struct SchedulePlan {
  std::uint64_t seed;
  std::size_t events;
  std::int64_t horizon_ns;
};

class RandomScheduleTest : public ::testing::TestWithParam<SchedulePlan> {};

TEST_P(RandomScheduleTest, SchedulerExecutesInTimeThenInsertionOrder) {
  const auto plan = GetParam();
  Rng rng{plan.seed};
  Scheduler s;

  struct Expected {
    Time at;
    std::size_t insertion;
  };
  std::vector<Expected> expected;
  std::vector<std::size_t> observed;
  expected.reserve(plan.events);

  for (std::size_t i = 0; i < plan.events; ++i) {
    const Time at = Time::nanoseconds(static_cast<std::int64_t>(
        rng.next_in(0, static_cast<std::uint64_t>(plan.horizon_ns))));
    expected.push_back({at, i});
    s.schedule_at(at, [&observed, i] { observed.push_back(i); });
  }
  s.run();

  std::stable_sort(expected.begin(), expected.end(),
                   [](const Expected& a, const Expected& b) { return a.at < b.at; });
  ASSERT_EQ(observed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(observed[i], expected[i].insertion) << "position " << i;
  }
}

TEST_P(RandomScheduleTest, RandomCancellationsNeverFireAndOthersAlwaysDo) {
  const auto plan = GetParam();
  Rng rng{plan.seed ^ 0xABCDEF};
  Scheduler s;
  std::vector<EventId> ids(plan.events);
  std::vector<bool> fired(plan.events, false);
  for (std::size_t i = 0; i < plan.events; ++i) {
    const Time at = Time::nanoseconds(static_cast<std::int64_t>(
        rng.next_in(1, static_cast<std::uint64_t>(plan.horizon_ns))));
    ids[i] = s.schedule_at(at, [&fired, i] { fired[i] = true; });
  }
  std::vector<bool> cancelled(plan.events, false);
  for (std::size_t i = 0; i < plan.events; ++i) {
    if (rng.next_bool(0.4)) {
      cancelled[i] = true;
      EXPECT_TRUE(s.cancel(ids[i]));
    }
  }
  s.run();
  for (std::size_t i = 0; i < plan.events; ++i) {
    EXPECT_EQ(fired[i], !cancelled[i]) << "event " << i;
  }
}

// The per-ACK RTO pattern: cancel + immediately reschedule, thousands of
// times, against both backends. The slot arena must recycle — its size is
// bounded by *simultaneously pending* events, not by scheduling traffic.
TEST_P(RandomScheduleTest, RescheduleStormRecyclesArenaSlots) {
  const auto plan = GetParam();
  for (const auto backend : {QueueBackend::kBinaryHeap, QueueBackend::kCalendarQueue}) {
    Rng rng{plan.seed ^ 0x7777};
    Scheduler s{backend};
    std::uint64_t fired = 0;
    EventId timer{};
    std::size_t peak_pending = 0;
    for (std::size_t i = 0; i < plan.events; ++i) {
      // False when a run_until below already fired the timer — both paths
      // (cancel-then-rearm, fire-then-rearm) occur in this storm.
      if (timer.valid()) (void)s.cancel(timer);
      const Time at = s.now() + Time::nanoseconds(static_cast<std::int64_t>(
                                    rng.next_in(1, 1'000'000)));
      timer = s.schedule_at(at, [&fired] { ++fired; });
      // A little background traffic so the arena holds more than one slot.
      if (rng.next_bool(0.1)) {
        s.schedule_at(at, [&fired] { ++fired; });
      }
      peak_pending = std::max(peak_pending, s.pending());
      if (rng.next_bool(0.3)) s.run_until(at);
    }
    s.run();
    // The storm scheduled ~1.1 * events callbacks; the arena must stay at
    // the high-water mark of pending events, orders of magnitude smaller.
    EXPECT_LE(s.arena_slots(), peak_pending);
    EXPECT_EQ(s.pending(), 0u);
    EXPECT_EQ(s.events_executed(), fired);
  }
}

// sim::Timer churn: flows come and go, and each flow's timer takes its
// persistent slot at the first arm_in() and releases it when destroyed. The
// arena must stay at the number of timers alive at once, however many were
// built, armed, fired and destroyed.
TEST_P(RandomScheduleTest, TimerChurnKeepsArenaFlat) {
  const auto plan = GetParam();
  constexpr std::size_t kLive = 8;
  for (const auto backend : {QueueBackend::kBinaryHeap, QueueBackend::kCalendarQueue}) {
    Rng rng{plan.seed ^ 0x3333};
    Scheduler s{backend};
    int fired = 0;
    std::array<std::optional<Timer>, kLive> timers;
    for (std::size_t i = 0; i < 4 * plan.events; ++i) {
      std::optional<Timer>& timer = timers[rng.next_in(0, kLive - 1)];
      timer.reset();
      timer.emplace(s, &fired, [](void* count) { ++*static_cast<int*>(count); });
      for (std::uint64_t arms = rng.next_in(0, 3); arms > 0; --arms) {
        timer->arm_in(Time::nanoseconds(static_cast<std::int64_t>(rng.next_in(0, 5'000))));
      }
      if (rng.next_bool(0.3)) timer->disarm();
      if (rng.next_bool(0.5)) s.run_until(s.now() + Time::nanoseconds(1'000));
      ASSERT_LE(s.arena_slots(), kLive) << "after " << i + 1 << " timers";
    }
    EXPECT_GT(fired, 0);
    for (auto& timer : timers) timer.reset();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.queued_entries(), 0u);
  }
}

TEST_P(RandomScheduleTest, CalendarQueueAgreesWithHeapOrder) {
  const auto plan = GetParam();
  Rng rng{plan.seed ^ 0x5555};
  CalendarQueue cal;

  std::vector<EventEntry> entries;
  for (std::size_t i = 0; i < plan.events; ++i) {
    const Time at = Time::nanoseconds(static_cast<std::int64_t>(
        rng.next_in(0, static_cast<std::uint64_t>(plan.horizon_ns))));
    const EventEntry entry{at, Time::zero(), i, static_cast<std::uint32_t>(i)};
    entries.push_back(entry);
    cal.push(entry);
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const EventEntry& a, const EventEntry& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.seq < b.seq;
                   });

  for (std::size_t i = 0; i < entries.size(); ++i) {
    ASSERT_FALSE(cal.empty());
    const auto entry = cal.pop_min();
    EXPECT_EQ(entry.at, entries[i].at) << "position " << i;
    EXPECT_EQ(entry.seq, entries[i].seq) << "position " << i;
    EXPECT_EQ(entry.slot, entries[i].slot) << "position " << i;
  }
  EXPECT_TRUE(cal.empty());
}

TEST_P(RandomScheduleTest, CalendarQueueInterleavedPushPop) {
  // Pops interleaved with pushes (monotone non-decreasing push times after
  // pops, as a simulator produces) must still come out sorted.
  const auto plan = GetParam();
  Rng rng{plan.seed ^ 0x9999};
  CalendarQueue cal;
  Time now = Time::zero();
  std::uint64_t seq = 0;
  Time last_popped = Time::zero();
  std::size_t pops = 0;

  for (std::size_t round = 0; round < plan.events; ++round) {
    const auto burst = rng.next_in(1, 4);
    for (std::uint64_t b = 0; b < burst; ++b) {
      const Time at = now + Time::nanoseconds(static_cast<std::int64_t>(
                                rng.next_in(0, 1'000'000)));
      cal.push(EventEntry{at, Time::zero(), seq++, 0});
    }
    if (!cal.empty() && rng.next_bool(0.7)) {
      const auto entry = cal.pop_min();
      EXPECT_GE(entry.at, last_popped);
      last_popped = entry.at;
      now = entry.at;
      ++pops;
    }
  }
  while (!cal.empty()) {
    const auto entry = cal.pop_min();
    EXPECT_GE(entry.at, last_popped);
    last_popped = entry.at;
    ++pops;
  }
  EXPECT_EQ(pops, seq);
}

INSTANTIATE_TEST_SUITE_P(
    Plans, RandomScheduleTest,
    ::testing::Values(SchedulePlan{1, 100, 1'000},          // dense ties
                      SchedulePlan{2, 1'000, 1'000'000},    // typical
                      SchedulePlan{3, 5'000, 100},          // extreme tie pressure
                      SchedulePlan{4, 2'000, 1'000'000'000},// sparse
                      SchedulePlan{5, 500, 50'000}),
    [](const ::testing::TestParamInfo<SchedulePlan>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.events);
    });

// Lockstep reference model: every schedule, cancel and firing is mirrored
// into a plain vector of live events, and each step() must fire the model's
// event_entry_before minimum at its time. The script mixes both ways to
// queue an event — one-shots (schedule_at) and persistent slots, also as
// sim::Timer wake-ups, which the heap backend keeps in a heap of their own
// — with cancels from the middle and the last position of either heap, from
// inside callbacks, and of stale ids. Persistent slots carry tagged keys
// (any origin, born now or earlier, as a link wire arms them) and are
// armed, re-keyed and disarmed from the script and from callbacks (with the
// fired entry's hole open), re-armed from their own firing, and cancel()
// must refuse them. A callback may also arm one at its own (at, birth),
// tagged, which sorts before the key being fired: the heap's fused pop must
// let it take the root. Between steps the queue must hold exactly the live
// events; inside a callback, with the fired entry's hole in either heap,
// queued_entries() and next_event_time() must describe the live events
// other than the one firing.
class LockstepModel {
 public:
  LockstepModel(QueueBackend backend, std::uint64_t seed) : s_{backend}, rng_{seed} {
    s_.reserve_origins(kOrigins);
    for (std::size_t i = 0; i < kPersistentSlots; ++i) {
      persistent_[i].model = this;
      persistent_[i].id = s_.add_persistent(&PersistentSlot::fire, &persistent_[i]);
    }
  }

  /// Labels in firing order.
  std::vector<std::uint32_t> run(std::size_t operations) {
    for (std::size_t i = 0; i < operations && ok(); ++i) {
      random_op();
      if (rng_.next_bool(0.5) && !live_.empty()) step();
    }
    while (ok() && !live_.empty()) step();
    EXPECT_TRUE(s_.empty());
    EXPECT_EQ(s_.queued_entries(), 0u);
    return fired_;
  }

 private:
  static constexpr std::uint32_t kOrigins = 4;
  static constexpr std::uint64_t kOneShotKind = 0;
  static constexpr std::uint64_t kTimerKind = 1;

  /// A sim::Timer armed once; its wake-up is the model's event.
  struct TimerEvent {
    LockstepModel* model;
    std::uint32_t label;
    std::optional<Timer> timer;
    static void fire(void* self) {
      const auto* event = static_cast<TimerEvent*>(self);
      event->model->on_fire(event->label);
    }
  };

  /// A persistent slot; `label` names its armed key's firing.
  struct PersistentSlot {
    LockstepModel* model{nullptr};
    EventId id;
    std::uint32_t label{0};
    static void fire(void* self) {
      const auto* slot = static_cast<PersistentSlot*>(self);
      slot->model->on_fire(slot->label);
    }
  };
  static constexpr std::size_t kPersistentSlots = 6;
  static constexpr std::size_t kNotPersistent = kPersistentSlots;

  struct Live {
    EventEntry key;  // `slot` holds the event's label
    EventId id;      // invalid for a timer wake-up: the timer owns it
    TimerEvent* timer{nullptr};
    std::size_t persistent{kNotPersistent};
  };

  static bool ok() { return !::testing::Test::HasFailure(); }

  Time near_future() {
    // A 2 us spread over thousands of events forces (at, birth) ties.
    return s_.now() + Time::nanoseconds(static_cast<std::int64_t>(rng_.next_in(0, 2'000)));
  }

  void schedule(std::uint64_t kind, Time at) {
    const auto label = next_label_++;
    Live live{EventEntry{at, s_.now(), next_rank_[0]++, label, 0}, EventId{}};
    if (kind == kOneShotKind) {
      live.id = s_.schedule_at(at, [this, label] { on_fire(label); });
    } else {
      // arm_in on a fresh timer queues the key schedule_at would: birth
      // now, a rank drawn from the default stream.
      timers_.push_back(std::make_unique<TimerEvent>(this, label));
      live.timer = timers_.back().get();
      live.timer->timer.emplace(s_, live.timer, &TimerEvent::fire);
      live.timer->timer->arm_in(at - s_.now());
    }
    live_.push_back(live);
  }

  /// Live entry of persistent slot `i`, or live_.end() when disarmed.
  std::vector<Live>::iterator persistent_live(std::size_t i) {
    return std::find_if(live_.begin(), live_.end(),
                        [i](const Live& live) { return live.persistent == i; });
  }

  /// Arm (or re-key) persistent slot `i` at (at, birth, origin) and a rank
  /// drawn up front, as a link wire does.
  void arm_persistent(std::size_t i, std::uint32_t origin, Time birth, Time at) {
    PersistentSlot& slot = persistent_[i];
    slot.label = next_label_++;
    const std::uint64_t rank = s_.draw_rank(origin);
    EXPECT_EQ(rank, next_rank_[origin]++);
    Live live{EventEntry{at, birth, rank, slot.label, origin}, slot.id};
    live.persistent = i;
    s_.arm_persistent(slot.id, origin, rank, birth, at);
    if (const auto it = persistent_live(i); it != live_.end()) {
      *it = live;
    } else {
      live_.push_back(live);
    }
  }

  /// Arm persistent slot `i` at a fresh key: any origin, born now or earlier.
  void arm_persistent(std::size_t i, Time at) {
    const auto origin = static_cast<std::uint32_t>(rng_.next_in(0, kOrigins - 1));
    const Time birth = Time::nanoseconds(static_cast<std::int64_t>(
        rng_.next_in(0, static_cast<std::uint64_t>(s_.now().nanoseconds_count()))));
    arm_persistent(i, origin, birth, at);
  }

  void persistent_op() {
    const std::size_t i = rng_.next_in(0, kPersistentSlots - 1);
    const std::size_t pending = s_.pending();
    EXPECT_FALSE(s_.cancel(persistent_[i].id));
    EXPECT_EQ(s_.pending(), pending);
    const auto it = persistent_live(i);
    if (it != live_.end() && rng_.next_bool(0.4)) {
      s_.disarm_persistent(persistent_[i].id);
      *it = live_.back();
      live_.pop_back();
    } else {
      arm_persistent(i, near_future());
    }
  }

  void cancel_live(std::size_t index) {
    if (live_[index].persistent != kNotPersistent) {
      EXPECT_FALSE(s_.cancel(live_[index].id));
      s_.disarm_persistent(live_[index].id);
    } else if (live_[index].timer != nullptr) {
      // Destroying a timer cancels its queued wake-up.
      const std::size_t pending = s_.pending();
      live_[index].timer->timer.reset();
      EXPECT_EQ(s_.pending(), pending - 1);
    } else {
      EXPECT_TRUE(s_.cancel(live_[index].id));
      dead_.push_back(live_[index].id);
    }
    live_[index] = live_.back();
    live_.pop_back();
  }

  void cancel_stale() {
    if (dead_.empty()) return;
    EXPECT_FALSE(s_.cancel(dead_[rng_.next_in(0, dead_.size() - 1)]));
  }

  std::uint64_t future_kind() { return rng_.next_bool(0.5) ? kOneShotKind : kTimerKind; }

  void random_op() {
    const auto op = rng_.next_in(0, 9);
    if (op >= 8) {
      persistent_op();
    } else if (op <= 4) {
      schedule(future_kind(), near_future());
    } else if (op == 5 && !live_.empty()) {
      cancel_live(rng_.next_in(0, live_.size() - 1));  // usually mid-queue
    } else if (op == 6) {
      // Latest event in its heap, so it sits at the last position.
      schedule(future_kind(), s_.now() + Time::seconds(1) + Time::nanoseconds(next_label_));
      cancel_live(live_.size() - 1);
    } else {
      cancel_stale();
    }
  }

  void step() {
    const auto min = std::min_element(
        live_.begin(), live_.end(),
        [](const Live& a, const Live& b) { return event_entry_before(a.key, b.key); });
    in_flight_ = *min;
    *min = live_.back();
    live_.pop_back();
    EXPECT_EQ(s_.next_event_time(), in_flight_.key.at);

    const std::size_t fired_before = fired_.size();
    EXPECT_TRUE(s_.step());
    EXPECT_EQ(fired_.size(), fired_before + 1) << "expected label " << in_flight_.key.slot;

    if (in_flight_.timer == nullptr && in_flight_.persistent == kNotPersistent) {
      dead_.push_back(in_flight_.id);
    }
    EXPECT_EQ(s_.pending(), live_.size());
    EXPECT_EQ(s_.queued_entries(), live_.size());
  }

  void on_fire(std::uint32_t label) {
    fired_.push_back(label);
    EXPECT_EQ(label, in_flight_.key.slot) << "firing " << fired_.size();
    EXPECT_EQ(s_.now(), in_flight_.key.at);
    check_inside_callback();
    if (rng_.next_bool(0.1)) {
      // The firing event's own (at, birth), tagged, so it pops before an
      // untagged fired key would have.
      arm_persistent(rng_.next_in(0, kPersistentSlots - 1),
                     static_cast<std::uint32_t>(rng_.next_in(1, kOrigins - 1)),
                     in_flight_.key.birth, s_.now());
    }
    if (in_flight_.persistent != kNotPersistent && rng_.next_bool(0.5)) {
      // Re-armed from its own firing: the push fills the fired entry's hole.
      arm_persistent(in_flight_.persistent, near_future());
    }
    if (rng_.next_bool(0.1)) persistent_op();
    if (rng_.next_bool(0.3)) schedule(future_kind(), near_future());
    if (rng_.next_bool(0.2) && !live_.empty()) cancel_live(rng_.next_in(0, live_.size() - 1));
    if (rng_.next_bool(0.05)) cancel_stale();
    // The firing event is no longer pending: a one-shot's slot was released
    // before its callback, and a persistent slot's own cancel() is refused.
    if (rng_.next_bool(0.2)) {
      EXPECT_FALSE(s_.cancel(in_flight_.id));
    }
    check_inside_callback();
  }

  // The firing event is not queued while its callback runs, on either
  // backend.
  void check_inside_callback() {
    EXPECT_EQ(s_.pending(), live_.size());
    EXPECT_EQ(s_.queued_entries(), live_.size());
    Time next = Time::infinity();
    for (const Live& live : live_) next = std::min(next, live.key.at);
    EXPECT_EQ(s_.next_event_time(), next);
  }

  Scheduler s_;
  Rng rng_;
  std::vector<Live> live_;
  std::vector<EventId> dead_;
  std::vector<std::uint64_t> next_rank_ = std::vector<std::uint64_t>(kOrigins, 1);
  std::vector<std::uint32_t> fired_;
  std::vector<std::unique_ptr<TimerEvent>> timers_;
  std::array<PersistentSlot, kPersistentSlots> persistent_{};
  Live in_flight_{};
  std::uint32_t next_label_{0};
};

TEST_P(RandomScheduleTest, LockstepModelMatchesBothBackends) {
  const auto plan = GetParam();
  const auto heap = LockstepModel{QueueBackend::kBinaryHeap, plan.seed}.run(plan.events);
  ASSERT_FALSE(HasFailure()) << "heap backend diverged from the model";
  const auto cal = LockstepModel{QueueBackend::kCalendarQueue, plan.seed}.run(plan.events);
  ASSERT_FALSE(HasFailure()) << "calendar backend diverged from the model";
  EXPECT_EQ(heap, cal);
  EXPECT_GT(heap.size(), plan.events / 2);
}

// The hole rule across the heap backend's two heaps: a one-shot pops from
// the event heap, and its callback's only schedule is a timer wake-up, which
// reuses the one-shot's freed slot in the timer heap. Closing the event
// heap's hole after the callback must leave that slot's heap position
// alone, so that a later cancel of the wake-up removes it.
TEST(TwoHeapTest, WakeUpInTheFiredSlotSurvivesTheHoleClose) {
  using namespace rss::sim::literals;
  Scheduler s;
  int timer_fired = 0;
  std::optional<Timer> timer;
  timer.emplace(s, &timer_fired, [](void* count) { ++*static_cast<int*>(count); });
  int later_fired = 0;
  s.schedule_at(5_ms, [&later_fired] { ++later_fired; });
  s.schedule_at(1_ms, [&timer] { timer->arm_in(10_ms); });
  ASSERT_EQ(s.arena_slots(), 2u);

  ASSERT_TRUE(s.step());
  EXPECT_EQ(s.arena_slots(), 2u) << "the wake-up did not reuse the fired slot";
  ASSERT_EQ(s.pending(), 2u);
  ASSERT_EQ(s.queued_entries(), 2u);
  EXPECT_EQ(s.next_event_time(), 5_ms);

  timer.reset();  // cancels the queued wake-up
  ASSERT_EQ(s.pending(), 1u);
  ASSERT_EQ(s.queued_entries(), 1u) << "the cancelled wake-up is still queued";
  EXPECT_EQ(s.next_event_time(), 5_ms);
  s.run();
  EXPECT_EQ(later_fired, 1);
  EXPECT_EQ(timer_fired, 0);
  EXPECT_EQ(s.events_executed(), 2u);
}

// The hole rule the other way round: a timer destroyed by its own handler
// releases its slot while the slot's entry is the timer heap's hole, and a
// one-shot the handler schedules next reuses that slot in the event heap.
// Closing the timer heap's hole must leave the one-shot queued.
TEST(TwoHeapTest, TimerDestroyedByItsOwnHandlerFreesItsSlot) {
  using namespace rss::sim::literals;
  Scheduler s;
  struct Owner {
    Scheduler* s;
    std::optional<Timer> timer{};
    int later{0};
  };
  Owner owner{&s};
  owner.timer.emplace(s, &owner, [](void* self) {
    auto* o = static_cast<Owner*>(self);
    o->timer.reset();
    o->s->schedule_in(1_ms, [o] { ++o->later; });
  });
  owner.timer->arm_in(1_ms);
  ASSERT_EQ(s.arena_slots(), 1u);

  ASSERT_TRUE(s.step());
  EXPECT_EQ(s.arena_slots(), 1u) << "the one-shot did not reuse the timer's slot";
  ASSERT_EQ(s.pending(), 1u);
  ASSERT_EQ(s.queued_entries(), 1u);
  EXPECT_EQ(s.next_event_time(), 2_ms);
  s.run();
  EXPECT_EQ(owner.later, 1);
  EXPECT_TRUE(s.empty());
}

// A persistent slot keeps its arena slot and its id across firings, counts
// as one pending event while armed, and only its owner can take it off the
// queue: cancel() refuses it, disarm_persistent() removes it.
TEST(PersistentSlotTest, ArmRearmDisarmAndCancelRefused) {
  using namespace rss::sim::literals;
  for (const auto backend : {QueueBackend::kBinaryHeap, QueueBackend::kCalendarQueue}) {
    Scheduler s{backend};
    struct Owner {
      Scheduler* s;
      EventId id;
      std::vector<Time> fired;
      static void fire(void* self) {
        auto* owner = static_cast<Owner*>(self);
        owner->fired.push_back(owner->s->now());
        // Re-armed from its own firing, until 3 ms.
        if (owner->s->now() < 3_ms) {
          owner->s->arm_persistent(owner->id, 1, owner->s->draw_rank(1), owner->s->now(),
                                   owner->s->now() + 1_ms);
        }
      }
    };
    Owner owner{&s, {}, {}};
    owner.id = s.add_persistent(&Owner::fire, &owner);
    EXPECT_EQ(s.pending(), 0u);
    s.arm_persistent(owner.id, 1, s.draw_rank(1), Time::zero(), 5_ms);
    s.arm_persistent(owner.id, 1, s.draw_rank(1), Time::zero(), 1_ms);  // re-key earlier
    EXPECT_EQ(s.pending(), 1u);
    EXPECT_EQ(s.queued_entries(), 1u);
    EXPECT_EQ(s.next_event_time(), 1_ms);
    EXPECT_FALSE(s.cancel(owner.id));
    EXPECT_EQ(s.pending(), 1u);
    const std::size_t slots = s.arena_slots();
    s.run();
    EXPECT_EQ(owner.fired, (std::vector<Time>{1_ms, 2_ms, 3_ms}));
    EXPECT_EQ(s.arena_slots(), slots);
    EXPECT_TRUE(s.empty());

    s.arm_persistent(owner.id, 1, s.draw_rank(1), s.now(), s.now() + 1_ms);
    s.disarm_persistent(owner.id);
    s.disarm_persistent(owner.id);  // a no-op when disarmed
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.queued_entries(), 0u);
    s.run();
    EXPECT_EQ(owner.fired.size(), 3u);

    const EventId one_shot = s.schedule_in(1_ms, [] {});
    EXPECT_THROW(s.arm_persistent(one_shot, 1, s.draw_rank(1), s.now(), s.now() + 1_ms),
                 std::invalid_argument);
    EXPECT_THROW(s.arm_persistent(owner.id, 1, s.draw_rank(1), s.now(), s.now() - 1_ms),
                 std::invalid_argument);
    EXPECT_THROW((void)s.add_persistent(nullptr, nullptr), std::invalid_argument);
  }
}

TEST(CalendarQueueTest, ResizesUnderLoad) {
  CalendarQueue cal{16, Time::microseconds(1)};
  for (std::uint64_t i = 0; i < 1000; ++i) {
    cal.push(EventEntry{Time::nanoseconds(static_cast<std::int64_t>(i * 137 % 100000)),
                        Time::zero(), i, static_cast<std::uint32_t>(i)});
  }
  EXPECT_GT(cal.resizes(), 0u);
  EXPECT_GT(cal.day_count(), 16u);
  Time last = Time::zero();
  while (!cal.empty()) {
    const auto entry = cal.pop_min();
    EXPECT_GE(entry.at, last);
    last = entry.at;
  }
}

TEST(CalendarQueueTest, RejectsPastPushAndEmptyPop) {
  CalendarQueue cal;
  cal.push(EventEntry{Time::milliseconds(5), Time::zero(), 1, 0});
  (void)cal.pop_min();
  EXPECT_THROW(cal.push(EventEntry{Time::milliseconds(1), Time::zero(), 2, 0}),
               std::invalid_argument);
  EXPECT_THROW((void)cal.pop_min(), std::logic_error);
}

TEST(CalendarQueueTest, ValidatesConstruction) {
  EXPECT_THROW(CalendarQueue(0, Time::microseconds(1)), std::invalid_argument);
  EXPECT_THROW(CalendarQueue(16, Time::zero()), std::invalid_argument);
}

}  // namespace
}  // namespace rss::sim
