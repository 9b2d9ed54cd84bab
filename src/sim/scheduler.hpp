#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/event_entry.hpp"
#include "sim/inline_callback.hpp"
#include "sim/time.hpp"

namespace rss::sim {

class Timer;

/// Event-queue implementation behind Scheduler. Both backends honor the
/// same contract — (time, insertion-sequence) pop order — so the choice is
/// purely a performance knob: the heap (an indexed 4-ary heap; the name
/// predates the 4-ary layout) is the default, the calendar queue is O(1)
/// amortized when event spacings are dense and near-uniform. No measured
/// workload is that regular: the calendar wins only a synthetic churn loop
/// (see docs/architecture.md, "Choosing a QueueBackend").
enum class QueueBackend {
  kBinaryHeap,
  kCalendarQueue,
};

/// Opaque handle to a scheduled one-shot event, used for cancellation, or
/// to a persistent slot. Encodes an arena slot index plus a generation
/// counter, so a handle to a fired/cancelled event or a removed slot can
/// never match whatever later reuses its arena slot. Default constructed
/// handles are inert (cancel() on them is a no-op).
class EventId {
 public:
  constexpr EventId() = default;
  [[nodiscard]] constexpr bool valid() const { return raw_ != 0; }
  [[nodiscard]] constexpr std::uint64_t raw() const { return raw_; }
  constexpr auto operator<=>(const EventId&) const = default;

 private:
  friend class Scheduler;
  constexpr EventId(std::uint32_t slot, std::uint32_t gen)
      : raw_{(static_cast<std::uint64_t>(slot) << 32) | gen} {}
  [[nodiscard]] constexpr std::uint32_t slot() const {
    return static_cast<std::uint32_t>(raw_ >> 32);
  }
  [[nodiscard]] constexpr std::uint32_t gen() const {
    return static_cast<std::uint32_t>(raw_ & 0xFFFF'FFFFu);
  }
  std::uint64_t raw_{0};
};

/// Discrete-event scheduler: (time, insertion-sequence) ordered callbacks
/// behind a selectable queue backend.
///
/// Same-timestamp events fire in insertion order (the sequence tiebreak),
/// which keeps simulations deterministic regardless of queue internals —
/// a correctness requirement, not a nicety: TCP ACK processing and link
/// drain events frequently coincide.
///
/// The event core is allocation-free on the hot path. Callbacks are
/// InlineCallback (small-buffer, no heap fallback) and live in a slot
/// arena recycled through a free list; both backends store only the 32-byte
/// POD EventEntry. Cancellation resolves an EventId to its slot in O(1)
/// with no hashing. Both backends cancel eagerly, so the queue holds
/// exactly the pending events and never a dead entry. Timers that restart
/// far more often than they expire — TCP's retransmission timer restarts on
/// every ACK, its delayed ACK is armed and disarmed every other segment —
/// should not cancel at all: sim::Timer (sim/timer.hpp) keeps one wake-up
/// queued across re-arms, so they cost a rank draw, not an erase and a push.
///
/// The heap backend is an indexed 4-ary min-heap (children of i at
/// 4i+1..4i+4; the wider fan-out halves the depth and keeps the siblings
/// compared at each level within two cache lines, after LaMarca & Ladner,
/// "The influence of caches on the performance of heaps", 1996): every slot
/// records its entry's heap position, so cancel() moves the last entry into
/// the hole and re-sifts it in O(log n), as OMNeT++'s cMessageHeap does.
///
/// It keeps two instances of that heap. sim::Timer wake-ups go to the timer
/// heap, through an entry point only Timer can call; everything else
/// (NIC completions, wire heads, one-shots, ticks, flow starts) goes to the
/// event heap. step() pops the lesser of the two roots, and keys are unique, so
/// pop order is that of one queue. The split is for the packet path: on a
/// 10^4-flow mesh over 99% of the queued entries are RTO and delayed-ACK
/// wake-ups, which are mostly restarted or disarmed before they pop (1% of
/// pops), while the packet events that make up the other 99% of pops are
/// few at any one time. One heap made each packet pop sift through ~15k
/// timers; the event heap holds ~60 entries (Varghese & Lauck, "Hashed and
/// Hierarchical Timing Wheels", 1987, argue the same: timers deserve a
/// structure of their own). Both heaps share heap_pos_; a slot records
/// which one its entry is in.
///
/// step() fuses the pop with the next push (the replace-top of Knuth, TAOCP
/// vol. 3 §5.2.3): the fired entry stays at the root of its heap as a hole
/// while its callback runs, and the first push into *that* heap — a NIC's
/// next completion, a wire's next head, a TCP send — overwrites the hole and
/// sifts down once, where a pop then a push would sift twice. A push into
/// the other heap is a plain push. The hole holds the smallest key in its
/// heap, so no other sift ever moves it. If no push filled it, step() moves
/// the last leaf into the root after the callback and must leave the hole's
/// heap_pos_ alone: a fired one-shot's slot was released before the
/// callback ran, and the callback may have reused it for an entry in the
/// other heap (a timer's first wake-up, say).
///
/// The calendar backend keeps one queue for everything and removes by
/// binary search in the entry's sorted bucket — required anyway, because
/// popping a dead far-future entry would advance the calendar's monotonic
/// floor past times that are still schedulable.
///
/// Persistent slots serve owners that keep at most one event queued at a
/// time and re-arm it after nearly every firing: a link wire's next
/// delivery, a NIC's next serialization completion, a sim::Timer's
/// wake-up. add_persistent() reserves an arena slot holding a plain
/// function and its context; arm_persistent() queues it at a key the owner
/// draws, re-keying it if it is already queued, and disarm_persistent()
/// takes it off the queue, on both backends. The slot is held until
/// remove_persistent() releases it and its handler is called in place, so
/// a firing costs no slot acquire, release or callback move; re-arming it
/// from its own handler fills the fused pop's hole like any other push.
/// cancel() refuses a persistent slot. Besides persistent slots, the only
/// way to queue an event is a one-shot: schedule_at/schedule_in, undone by
/// cancel().
///
/// The frontier is the key of the run's progress, for owners that apply
/// their own effects lazily (see NetDevice's lazy departures): inside a
/// callback it is the entry executing, after a bare step() the last entry
/// popped, and after run_until(t) every key at or before t. reached(at,
/// birth) says whether an untagged event with that key would already have
/// fired. Partition drains insert only keys after the window end, so the
/// rule holds under partitioned runs too.
class Scheduler {
 public:
  using Callback = InlineCallback;
  /// Handler of a persistent slot.
  using PersistentFn = void (*)(void* context);

  explicit Scheduler(QueueBackend backend = QueueBackend::kBinaryHeap) : backend_{backend} {}
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] QueueBackend backend() const { return backend_; }

  /// Current simulation time. Monotonically non-decreasing.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `cb` at absolute time `at` (must be >= now()), keyed (at,
  /// birth now(), default stream, draw_rank(0)).
  EventId schedule_at(Time at, Callback cb);

  /// Schedule `cb` after relative delay `delay` (must be >= 0).
  EventId schedule_in(Time delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Consume and return the next rank of `origin`'s tie-break stream: the
  /// rank of a key an owner arms in its persistent slot. Origins label
  /// *nodes* in a partitioned topology, so the rank is a pure function of
  /// the node's local transmit history — the same value whether the node's
  /// events land in one shared scheduler or its own partition's. Link
  /// transmits draw it on the sender's scheduler, and the delivery is armed
  /// later, when it heads its wire, possibly on another partition's. Origin
  /// 0 is the default stream, which schedule_at draws from. Ranks start at
  /// 1.
  std::uint64_t draw_rank(std::uint32_t origin) {
    if (origin >= next_rank_.size()) next_rank_.resize(origin + 1, 1);
    return next_rank_[origin]++;
  }

  /// The rank draw_rank(origin) would return next, without consuming it.
  [[nodiscard]] std::uint64_t peek_rank(std::uint32_t origin) const {
    return origin < next_rank_.size() ? next_rank_[origin] : 1;
  }

  /// Pre-size the per-origin rank counters so ranked scheduling for origins
  /// < `count` never allocates on the hot path. The builder calls this with
  /// node_count + 1 on every partition's scheduler.
  void reserve_origins(std::size_t count) {
    if (count > next_rank_.size()) next_rank_.resize(count, 1);
  }

  /// Cancel a pending one-shot. Safe to call with an already-fired,
  /// already-cancelled, or default-constructed id; returns true iff
  /// something was actually cancelled. A persistent slot is never
  /// cancelled (false); disarm it instead.
  bool cancel(EventId id);

  /// Reserve a persistent slot whose firings call `fn(context)` (see the
  /// class comment), queued in the event heap. It starts disarmed and is
  /// held until remove_persistent(), or for the scheduler's life.
  EventId add_persistent(PersistentFn fn, void* context) { return add_slot(fn, context, false); }

  /// Queue persistent slot `id` at key (at, birth, origin, rank), which the
  /// caller drew (the rank from draw_rank), replacing the key it is queued
  /// at, if any. An armed slot is one pending event.
  void arm_persistent(EventId id, std::uint32_t origin, std::uint64_t rank, Time birth,
                      Time at);

  /// Take persistent slot `id` off the queue; a no-op when it is not armed.
  void disarm_persistent(EventId id);

  /// Disarm persistent slot `id` and release it to the arena; `id` is dead
  /// afterwards. May be called from the slot's own handler.
  void remove_persistent(EventId id);

  /// Whether an untagged event keyed (at, birth) comes before the frontier
  /// (see the class comment), i.e. would already have fired. An untagged
  /// entry at the frontier's own (at, birth) counts as before it: the rank
  /// that would order the two is not known to the caller.
  [[nodiscard]] bool reached(Time at, Time birth) const {
    if (at != frontier_.at) return at < frontier_.at;
    if (birth != frontier_.birth) return birth < frontier_.birth;
    return frontier_.origin == 0;
  }

  /// Run until the queue is empty or `stop()` is called.
  void run();

  /// Run events with timestamp <= `until`; afterwards now() == min(until,
  /// stop time). Events scheduled at exactly `until` do fire.
  void run_until(Time until);

  /// Fire at most one event; returns false if none was pending (or stop was
  /// requested). Useful for single-stepping in tests.
  bool step();

  /// Request run()/run_until() to return after the current event completes.
  void stop() { stop_requested_ = true; }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Live events: pending one-shots plus armed persistent slots.
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Size of the slot arena: the high-water mark of pending one-shots plus
  /// held persistent slots. One-shot slots are recycled through a free
  /// list, so schedule/cancel storms must not grow this (tests assert it);
  /// a persistent slot is held from add_persistent() to
  /// remove_persistent(), armed or not.
  [[nodiscard]] std::size_t arena_slots() const { return slots_.size(); }

  /// Timestamp of the earliest pending event, or Time::infinity() if none.
  /// Inside a callback the firing event is no longer pending: on both
  /// backends this is the earliest of the other queued events in either
  /// heap, including any the callback has already scheduled. Cheap enough
  /// for run_until() to ask before every step: two roots, or a hole's
  /// children.
  [[nodiscard]] Time next_event_time() const;

  /// Queued entries of the active backend, summed over the heap backend's
  /// event and timer heaps, for tests. It equals pending(): the root hole
  /// (see the class comment), in whichever heap it is, is not an entry. A
  /// sim::Timer's stale wake-up is a pending event like any other.
  [[nodiscard]] std::size_t queued_entries() const {
    if (backend_ == QueueBackend::kCalendarQueue) return calendar_.size();
    return event_heap_.size() + timer_heap_.size() - (hole_ != nullptr ? 1 : 0);
  }

 private:
  friend class Timer;

  using Heap = std::vector<EventEntry>;

  /// heap_pos_ value of a slot whose entry is not in a heap: a free or
  /// disarmed slot, a firing one, or any slot under the calendar backend.
  static constexpr std::uint32_t kNotQueued = 0xFFFF'FFFFu;

  /// A persistent slot's handler.
  struct Handler {
    PersistentFn fn{nullptr};
    void* context{nullptr};
  };

  /// Arena slot: owns the callback and the bookkeeping of one one-shot or
  /// persistent slot. The queued entry's key lives in the queue itself:
  /// heap_pos_ finds it in the heap `timer` names, calendar_keys_ mirrors
  /// it for the calendar backend. `armed` means pending for a one-shot,
  /// queued for a persistent slot.
  struct Slot {
    Callback cb;        ///< a one-shot's; empty for a persistent slot
    Handler handler{};  ///< a persistent slot's; fn is null for a one-shot
    std::uint32_t gen{1};
    bool armed{false};
    bool timer{false};  ///< a sim::Timer's wake-up, queued in timer_heap_

    [[nodiscard]] bool persistent() const { return handler.fn != nullptr; }
  };
  static_assert(sizeof(Slot) <= 96, "a 10^4-event run keeps 10^4 slots");

  /// add_persistent, in the timer heap when `timer`; only sim::Timer asks
  /// for that.
  EventId add_slot(PersistentFn fn, void* context, bool timer);
  std::uint32_t acquire_slot();
  /// Free slot `index` for reuse. The caller has taken its entry off the
  /// queue and counted it out of live_.
  void release_slot(std::uint32_t index);
  void push_entry(const EventEntry& entry, bool timer);

  // Indexed 4-ary heaps. Every move of an entry goes through place(), which
  // keeps the owning slot's heap_pos_ in step.
  void place(Heap& heap, std::size_t pos, const EventEntry& entry) {
    heap[pos] = entry;
    heap_pos_[entry.slot] = static_cast<std::uint32_t>(pos);
  }
  void sift_up(Heap& heap, std::size_t pos, EventEntry entry);
  void sift_down(Heap& heap, std::size_t pos, EventEntry entry);
  /// Remove the entry at `pos`: the last entry fills the hole and is
  /// re-sifted in whichever direction restores heap order.
  void heap_erase(Heap& heap, std::size_t pos);
  /// Remove the root hole no push filled, as a pop would have. Unlike
  /// heap_erase, it leaves heap_pos_ of the hole's slot alone: that slot
  /// may have been released (a one-shot's before its callback, a timer's
  /// when its handler destroyed the timer), and the callback may have
  /// queued a new entry through it in the other heap.
  void close_hole();
  /// Time of `heap`'s earliest queued entry, skipping the hole.
  [[nodiscard]] Time earliest(const Heap& heap) const;
  /// Take slot `index`'s queued entry off the active backend's queue.
  void unqueue(std::uint32_t index);
  /// The persistent slot `id` names; throws for any other id.
  Slot& persistent_slot(EventId id);

  std::vector<Slot> slots_;
  /// Heap position of each slot's queued entry, indexed like slots_. Kept
  /// beside the arena rather than inside Slot because every sift step
  /// writes one: 4 bytes per slot stay cache-resident where the 96-byte
  /// Slots of a 10^4-event run do not (about 5% of run time on a 10k-flow
  /// mesh).
  std::vector<std::uint32_t> heap_pos_;
  std::vector<std::uint32_t> free_slots_;
  /// Everything but timer wake-ups: packet events, ticks, flow starts.
  Heap event_heap_;
  /// sim::Timer wake-ups only.
  Heap timer_heap_;
  /// Heap backend: the heap whose root step() popped, while the fired entry
  /// stays in its root until the next push into that heap overwrites it or
  /// step() closes it; nullptr otherwise. No heap_pos_ points at the hole.
  Heap* hole_{nullptr};
  CalendarQueue calendar_;
  /// Calendar backend only: each slot's queued key, indexed like slots_,
  /// which cancel() needs to find the entry in its bucket.
  std::vector<EventEntry> calendar_keys_;
  QueueBackend backend_{QueueBackend::kBinaryHeap};
  std::size_t live_{0};
  Time now_{Time::zero()};
  /// Per-origin insertion-rank counters; element 0 (always present) is the
  /// default stream and behaves exactly like the old global sequence.
  std::vector<std::uint64_t> next_rank_ = std::vector<std::uint64_t>(1, 1);
  std::uint64_t executed_{0};
  /// See the class comment. Starts at time zero, before any event fires.
  EventEntry frontier_{};
  bool stop_requested_{false};
};

}  // namespace rss::sim
