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
/// the new deadline stays queued; one due later is re-keyed to the recorded
/// key. disarm() only forgets the recorded key. A wake-up that pops with a
/// rank other than the recorded one is stale: it re-queues itself at the
/// recorded key if the timer is armed (no rank is drawn), and has no other
/// effect. So the handler fires at exactly the key the eager timer's event
/// would have had, every other event keeps its key, and the rank stream is
/// the eager one: pop order cannot change. The cost is a stale wake-up now
/// and then, which counts as a pending and an executed event.
///
/// The wake-up is the timer's own persistent slot in the Scheduler's timer
/// heap, apart from packet events (see the Scheduler class comment); only
/// Timer can queue there. The slot is taken at the first arm_in(), so a
/// timer that is never armed costs no arena slot, and released when the
/// timer is destroyed. The handler is a plain function pointer plus its
/// owner, not an InlineCallback, because every TCP flow holds two timers.
/// A timer must not move (its slot points at it), and its scheduler must
/// outlive it.
class Timer {
 public:
  using Handler = void (*)(void* owner);

  Timer(Scheduler& scheduler, void* owner, Handler on_fire)
      : scheduler_{&scheduler}, owner_{owner}, on_fire_{on_fire} {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() {
    if (slot_.valid()) scheduler_->remove_persistent(slot_);
  }

  /// Fire `delay` from now, replacing any deadline set before.
  void arm_in(Time delay) {
    birth_ = scheduler_->now();
    deadline_ = birth_ + delay;
    rank_ = scheduler_->draw_rank(0);
    if (queued_rank_ != 0 && wakeup_at_ <= deadline_) return;  // it re-queues when it pops
    queue_wakeup();
  }

  /// Stop the timer; a queued wake-up stays queued and pops as a no-op.
  void disarm() { rank_ = 0; }

  [[nodiscard]] bool armed() const { return rank_ != 0; }

 private:
  static void wake(void* timer) { static_cast<Timer*>(timer)->on_wakeup(); }

  void queue_wakeup() {
    if (!slot_.valid()) slot_ = scheduler_->add_slot(&Timer::wake, this, true);
    wakeup_at_ = deadline_;
    queued_rank_ = rank_;
    scheduler_->arm_persistent(slot_, 0, rank_, birth_, deadline_);
  }

  void on_wakeup() {
    const std::uint64_t popped = queued_rank_;
    queued_rank_ = 0;
    if (!armed()) return;
    if (popped != rank_) {
      queue_wakeup();
      return;
    }
    rank_ = 0;
    on_fire_(owner_);
  }

  Scheduler* scheduler_;
  void* owner_;
  Handler on_fire_;
  EventId slot_{};  ///< persistent; taken at the first arm_in()
  Time wakeup_at_;
  Time deadline_;
  Time birth_;
  /// The recorded key's rank; 0 (never a drawn rank) while disarmed.
  std::uint64_t rank_{0};
  /// The queued wake-up's rank; 0 while none is queued.
  std::uint64_t queued_rank_{0};
};

static_assert(sizeof(Timer) <= 72, "TCP endpoints hold two timers per flow");

}  // namespace rss::sim
