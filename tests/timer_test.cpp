// sim::Timer against the eager timer it replaces. A lazy timer keeps one
// wake-up queued across re-arms and disarms; it is correct iff every
// observable — which handler fires when, the pop order of every other
// event, the scheduler's draw_rank(0) stream — matches cancelling and
// calling schedule_in on every re-arm. The lockstep test drives both through
// the same random script, from inside callbacks as TCP does.

#include "sim/timer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace rss::sim {
namespace {

using namespace rss::sim::literals;

void count_fire(void* count) { ++*static_cast<int*>(count); }

TEST(TimerTest, FiresOnceAtTheLatestDeadline) {
  Scheduler s;
  int fired = 0;
  Timer timer{s, &fired, &count_fire};
  timer.arm_in(10_ms);
  s.run_until(4_ms);
  timer.arm_in(10_ms);  // later: the wake-up at 10 ms stays queued
  EXPECT_EQ(s.pending(), 1u);
  s.run_until(13_ms);
  EXPECT_EQ(fired, 0);  // the 10 ms wake-up was stale and re-queued itself
  EXPECT_TRUE(timer.armed());
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 14_ms);
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(s.events_executed(), 2u);
}

TEST(TimerTest, EarlierDeadlineReplacesTheWakeUp) {
  Scheduler s;
  int fired = 0;
  Timer timer{s, &fired, &count_fire};
  timer.arm_in(10_ms);
  timer.arm_in(3_ms);
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.next_event_time(), 3_ms);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 3_ms);
  EXPECT_EQ(s.events_executed(), 1u);
}

TEST(TimerTest, DisarmLeavesAWakeUpThatDoesNothing) {
  Scheduler s;
  int fired = 0;
  Timer timer{s, &fired, &count_fire};
  timer.arm_in(10_ms);
  timer.disarm();
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.events_executed(), 1u);
  EXPECT_TRUE(s.empty());
}

TEST(TimerTest, DestroyingTheTimerCancelsItsWakeUp) {
  Scheduler s;
  int fired = 0;
  {
    Timer timer{s, &fired, &count_fire};
    timer.arm_in(10_ms);
  }
  EXPECT_TRUE(s.empty());
  s.run();
  EXPECT_EQ(fired, 0);
}

// One scheduler driven by the shared random script, with kTimers timers
// that are either sim::Timers or eager EventIds (cancel + schedule_in on
// every re-arm), plus unrelated labelled events. Every firing of a timer
// handler or an unrelated event is logged with its time, and so is every
// rank the script draws; the two variants must log the same.
class TimerScript {
 public:
  static constexpr std::size_t kTimers = 3;

  TimerScript(bool lazy, std::uint64_t seed, std::size_t operations)
      : lazy_{lazy}, rng_{seed}, budget_{operations} {
    for (std::size_t i = 0; i < kTimers; ++i) {
      owners_[i] = Owner{this, i};
      if (lazy_) lazy_timers_[i].emplace(s_, &owners_[i], &Owner::fire);
    }
  }

  std::vector<std::string> run() {
    schedule_tick();
    s_.run();
    EXPECT_EQ(unrelated_, 0u);
    return log_;
  }

  [[nodiscard]] std::uint64_t events_executed() const { return s_.events_executed(); }

 private:
  struct Owner {
    TimerScript* script{nullptr};
    std::size_t index{0};
    static void fire(void* self) {
      const auto* owner = static_cast<Owner*>(self);
      owner->script->on_timer(owner->index);
    }
  };

  Time delay() {
    // Multiples of 100 ns over 3 us: equal deadlines and exact ties with
    // unrelated events are routine.
    return Time::nanoseconds(static_cast<std::int64_t>(rng_.next_in(0, 30) * 100));
  }

  void log(const std::string& what) {
    log_.push_back(what + "@" + std::to_string(s_.now().nanoseconds_count()));
  }

  void arm(std::size_t i) {
    const Time d = delay();
    if (lazy_) {
      lazy_timers_[i]->arm_in(d);
    } else {
      (void)s_.cancel(eager_[i]);
      eager_[i] = s_.schedule_in(d, [this, i] {
        eager_[i] = EventId{};
        on_timer(i);
      });
    }
    armed_[i] = true;
  }

  void disarm(std::size_t i) {
    if (lazy_) {
      lazy_timers_[i]->disarm();
    } else {
      (void)s_.cancel(eager_[i]);
      eager_[i] = EventId{};
    }
    armed_[i] = false;
  }

  void schedule_tick() {
    s_.schedule_in(delay(), [this] { on_tick(); });
    ++unrelated_;
  }

  void schedule_unrelated() {
    const auto label = next_label_++;
    unrelated_ids_.push_back(s_.schedule_in(delay(), [this, label] { on_event(label); }));
    ++unrelated_;
  }

  void random_ops() {
    const auto ops = rng_.next_in(0, 3);
    for (std::uint64_t n = 0; n < ops && budget_ > 0; ++n, --budget_) {
      const auto op = rng_.next_in(0, 19);
      const std::size_t i = rng_.next_in(0, kTimers - 1);
      if (op < 9) {
        arm(i);
      } else if (op < 12) {
        disarm(i);
      } else if (op < 17) {
        schedule_unrelated();
      } else if (op < 19 && !unrelated_ids_.empty()) {
        if (s_.cancel(unrelated_ids_[rng_.next_in(0, unrelated_ids_.size() - 1)])) {
          --unrelated_;
          log("cancel");
        }
      } else {
        log("rank" + std::to_string(s_.draw_rank(0)));
      }
    }
    check_pending();
  }

  void check_pending() {
    // Each timer holds at most one queued wake-up; an eager timer holds one
    // exactly while it is armed.
    const auto armed = static_cast<std::size_t>(std::count(armed_.begin(), armed_.end(), true));
    ASSERT_GE(s_.pending(), unrelated_ + armed);
    const std::size_t wakeups = s_.pending() - unrelated_;
    EXPECT_LE(wakeups, kTimers);
    if (!lazy_) {
      EXPECT_EQ(wakeups, armed);
    }
  }

  void on_timer(std::size_t i) {
    EXPECT_TRUE(armed_[i]);
    armed_[i] = false;
    log("timer" + std::to_string(i));
    random_ops();
  }

  void on_event(std::uint32_t label) {
    --unrelated_;
    log("event" + std::to_string(label));
    random_ops();
  }

  // A tick schedules the next while the budget lasts, like an ACK clocking
  // out the next send, so the script never dies out.
  void on_tick() {
    --unrelated_;
    log("tick");
    if (budget_ > 0) schedule_tick();
    random_ops();
  }

  bool lazy_;
  Scheduler s_;
  Rng rng_;
  std::size_t budget_;
  std::array<Owner, kTimers> owners_{};
  std::array<std::optional<Timer>, kTimers> lazy_timers_{};
  std::array<EventId, kTimers> eager_{};
  std::array<bool, kTimers> armed_{};
  std::vector<EventId> unrelated_ids_;
  std::size_t unrelated_{0};
  std::uint32_t next_label_{1};
  std::vector<std::string> log_;
};

TEST(TimerTest, LockstepWithEagerCancelAndReschedule) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    TimerScript eager{false, seed, 3'000};
    TimerScript lazy{true, seed, 3'000};
    const auto eager_log = eager.run();
    ASSERT_FALSE(HasFailure());
    const auto lazy_log = lazy.run();
    ASSERT_FALSE(HasFailure());
    EXPECT_EQ(lazy_log, eager_log);
    EXPECT_GT(eager_log.size(), 1'000u);
    // Stale wake-ups are the only extra events: the script re-armed and
    // disarmed timers whose wake-ups stayed queued.
    EXPECT_GT(lazy.events_executed(), eager.events_executed());
  }
}

}  // namespace
}  // namespace rss::sim
