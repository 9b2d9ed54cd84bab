#pragma once

#include <cstdint>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace rss::sim {

/// Restartable one-shot timer that re-arms without cancelling — the
/// event-driven form of the lazy timer TCP implementations keep (a stored
/// deadline that a periodic tick compares against), for timers restarted
/// far more often than they expire. TCP's retransmission timer restarts on
/// every ACK, and its delayed ACK is armed and disarmed every other segment;
/// eagerly, each restart is a heap erase from the middle plus a push.
///
/// arm_in(d) records the key an eager re-arm — cancel, then schedule_in(d)
/// — would queue: deadline now + d, birth now, and a rank drawn from the
/// default stream (draw_rank(0)). A wake-up already queued no later than
/// the new deadline stays queued; one due later is cancelled and the
/// recorded key queued in its place. disarm() only clears a flag. A wake-up
/// that pops with a rank other than the recorded one is stale: it re-queues
/// itself at the recorded key if the timer is armed (no rank is drawn), and
/// has no other effect. So the handler fires at exactly the key the eager
/// timer's event would have had, every other event keeps its key, and the
/// rank stream is the eager one: pop order cannot change. The cost is a
/// stale wake-up now and then, which counts as a pending and an executed
/// event. At most one wake-up is queued, in the Scheduler's timer heap,
/// apart from packet events (see the Scheduler class comment); only Timer
/// can queue there.
///
/// The handler is a plain function pointer plus its owner, not an
/// InlineCallback, because every TCP flow holds two timers.
/// A timer must not move (its wake-up points at it), and its scheduler
/// must outlive it; destroying it cancels its wake-up.
class Timer {
 public:
  using Handler = void (*)(void* owner);

  Timer(Scheduler& scheduler, void* owner, Handler on_fire)
      : scheduler_{&scheduler}, owner_{owner}, on_fire_{on_fire} {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { (void)scheduler_->cancel(wakeup_); }

  /// Fire `delay` from now, replacing any deadline set before.
  void arm_in(Time delay) {
    birth_ = scheduler_->now();
    deadline_ = birth_ + delay;
    rank_ = scheduler_->draw_rank(0);
    armed_ = true;
    if (wakeup_.valid() && wakeup_at_ <= deadline_) return;  // it re-queues when it pops
    (void)scheduler_->cancel(wakeup_);
    queue_wakeup();
  }

  /// Stop the timer; a queued wake-up stays queued and pops as a no-op.
  void disarm() { armed_ = false; }

  [[nodiscard]] bool armed() const { return armed_; }

 private:
  void queue_wakeup() {
    const auto wake = [this, rank = rank_] { on_wakeup(rank); };
    static_assert(sizeof(wake) <= InlineCallback::kCapacity,
                  "timer wake-up must stay inline on the per-ACK hot path");
    wakeup_at_ = deadline_;
    wakeup_ = scheduler_->schedule_timer_wakeup(rank_, birth_, deadline_, wake);
  }

  void on_wakeup(std::uint64_t rank) {
    wakeup_ = EventId{};
    if (!armed_) return;
    if (rank != rank_) {
      queue_wakeup();
      return;
    }
    armed_ = false;
    on_fire_(owner_);
  }

  Scheduler* scheduler_;
  void* owner_;
  Handler on_fire_;
  EventId wakeup_{};
  Time wakeup_at_;
  Time deadline_;
  Time birth_;
  std::uint64_t rank_{0};
  bool armed_{false};
};

static_assert(sizeof(Timer) <= 72, "TCP endpoints hold two timers per flow");

}  // namespace rss::sim
