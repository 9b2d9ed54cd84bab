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
/// predates the 4-ary layout) is the robust default, the calendar queue is
/// O(1) amortized on dense near-uniform event spacings (packet
/// serializations at line rate).
enum class QueueBackend {
  kBinaryHeap,
  kCalendarQueue,
};

/// Opaque handle to a scheduled event (or event train), used for
/// cancellation. Encodes an arena slot index plus a generation counter, so
/// a handle to a fired/cancelled event can never accidentally cancel the
/// unrelated event that later reuses its slot. Default constructed handles
/// are inert (cancel() on them is a no-op).
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
/// (trains, wire heads, one-shots, ticks, flow starts) goes to the event
/// heap. step() pops the lesser of the two roots, and keys are unique, so
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
/// while its callback runs, and the first push into *that* heap — a train's
/// next firing, a wire's next head, a TCP send — overwrites the hole and
/// sifts down once, where a pop then a push would sift twice. A push into
/// the other heap is a plain push. The hole holds the smallest key in its
/// heap, so no other sift ever moves it. If no push filled it, step() moves
/// the last leaf into the root after the callback and must leave the hole's
/// heap_pos_ alone: the fired slot was released before the callback ran,
/// and the callback may have reused it for an entry in the other heap.
///
/// The calendar backend keeps one queue for everything and removes by
/// binary search in the entry's sorted bucket — required anyway, because
/// popping a dead far-future entry would advance the calendar's monotonic
/// floor past times that are still schedulable.
///
/// Persistent slots serve owners that keep at most one event queued for
/// their whole life and re-arm it after nearly every firing: a link wire's
/// next delivery. add_persistent() reserves an arena slot holding a plain
/// function and its context; arm_persistent() queues it at a given key,
/// re-keying it if it is already queued, and disarm_persistent() takes it
/// off the queue, on both backends. The slot is never released and its
/// handler is called in place, so a firing costs no slot acquire, release
/// or callback move; re-arming it from its own handler fills the fused
/// pop's hole like any other push. cancel() refuses a persistent slot.
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

  /// Schedule `cb` at absolute time `at` (must be >= now()).
  EventId schedule_at(Time at, Callback cb) {
    return arm(at, Time::zero(), 1, std::move(cb), now_, 0);
  }

  /// Schedule `cb` after relative delay `delay` (must be >= 0).
  EventId schedule_in(Time delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Schedule on the `origin` tie-break stream (birth = now()): the event's
  /// rank among same-(at, birth) peers is drawn from origin's private
  /// counter, not the global insertion sequence. Origins label *nodes* in a
  /// partitioned topology, so the rank is a pure function of the node's
  /// local transmit history — the same value whether the node's events land
  /// in one shared scheduler or its own partition's. Origin 0 is the
  /// default stream used by every un-ranked schedule_* call.
  EventId schedule_at_ranked(std::uint32_t origin, Time at, Callback cb) {
    return arm(at, Time::zero(), 1, std::move(cb), now_, origin);
  }

  /// Schedule with an explicit, externally drawn (origin, rank) pair and
  /// birth time — the link-wire path. The rank was consumed from the
  /// sending node's origin counter at transmit time (draw_rank, on the
  /// *source* scheduler when the link crosses partitions), so it is exactly
  /// the rank an immediate schedule_at_ranked would have assigned; this
  /// call does not touch the local counters.
  EventId schedule_at_imported(std::uint32_t origin, std::uint64_t rank, Time birth,
                               Time at, Callback cb) {
    return arm_with_rank(at, Time::zero(), 1, std::move(cb), birth, origin, rank, false);
  }

  /// Consume and return the next rank of `origin`'s tie-break stream
  /// without scheduling anything — used by link transmits, which draw the
  /// rank on the sender's scheduler but arm the delivery later, when it
  /// heads its wire (schedule_at_imported), possibly on another partition's.
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

  /// Schedule an event *train*: `cb` fires `count` times, at `start`,
  /// `start + stride`, ... Back-to-back packet serializations at line rate
  /// are exactly this shape, and a train costs one arena slot and one
  /// callback for the whole burst — each firing re-enqueues the same entry
  /// with a fresh insertion sequence drawn at fire time, which makes the
  /// train byte-identical in pop order to `count` chained schedule_at calls
  /// (the pattern it replaces). The returned id covers the whole train:
  /// cancel() stops all remaining firings, including from inside `cb`.
  EventId schedule_train(Time start, Time stride, std::uint64_t count, Callback cb);

  /// Cancel a pending event or train. Safe to call with an already-fired,
  /// already-cancelled, or default-constructed id; returns true iff
  /// something was actually cancelled. A persistent slot is never
  /// cancelled (false); disarm it instead.
  bool cancel(EventId id);

  /// Reserve a persistent slot whose firings call `fn(context)` (see the
  /// class comment). It starts disarmed and lives as long as the scheduler.
  EventId add_persistent(PersistentFn fn, void* context);

  /// Queue persistent slot `id` at key (at, birth, origin, rank), which the
  /// caller drew (as for schedule_at_imported), replacing the key it is
  /// queued at, if any. An armed slot is one pending event.
  void arm_persistent(EventId id, std::uint32_t origin, std::uint64_t rank, Time birth,
                      Time at);

  /// Take persistent slot `id` off the queue; a no-op when it is not armed.
  void disarm_persistent(EventId id);

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
  /// Live (pending, uncancelled) events. A train counts as one pending
  /// event regardless of remaining firings, matching the chained-schedule
  /// pattern it replaces (which also has exactly one event in flight).
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Size of the slot arena (high-water mark of simultaneously-pending
  /// events). Slots are recycled through a free list, so schedule/cancel
  /// storms must not grow this; tests assert it.
  [[nodiscard]] std::size_t arena_slots() const { return slots_.size(); }

  /// Timestamp of the earliest pending event, or Time::infinity() if none.
  /// Inside a callback the firing event is no longer pending: on both
  /// backends this is the earliest of the other queued events in either
  /// heap, including any the callback has already scheduled. A train's next
  /// firing is not among them until its callback returns. Cheap enough for
  /// run_until() to ask before every step: two roots, or a hole's children.
  [[nodiscard]] Time next_event_time() const;

  /// Queued entries of the active backend, summed over the heap backend's
  /// event and timer heaps, for tests. A queued entry is a pending event's
  /// next firing, so this equals pending() except inside a train's
  /// callback, where the train is pending but its next firing is queued
  /// only after the callback returns (one less). The root hole (see the
  /// class comment), in whichever heap it is, is not an entry. A
  /// sim::Timer's stale wake-up is a pending event like any other.
  [[nodiscard]] std::size_t queued_entries() const {
    if (backend_ == QueueBackend::kCalendarQueue) return calendar_.size();
    return event_heap_.size() + timer_heap_.size() - (hole_ != nullptr ? 1 : 0);
  }

 private:
  friend class Timer;

  using Heap = std::vector<EventEntry>;

  /// heap_pos_ value of a slot whose entry is not in a heap: a free slot,
  /// any slot under the calendar backend, or a train whose current
  /// occurrence is mid-flight.
  static constexpr std::uint32_t kNotQueued = 0xFFFF'FFFFu;

  /// Firing count of a one-shot event (remaining == 1) or a train
  /// (remaining > 1).
  struct Train {
    Time stride;
    std::uint64_t remaining{0};
  };
  /// A persistent slot's handler.
  struct Handler {
    PersistentFn fn;
    void* context;
  };

  /// Arena slot: owns the callback and the bookkeeping of one event, train
  /// or persistent slot. The queued entry's key lives in the queue itself:
  /// heap_pos_ finds it in the heap `timer` names, calendar_keys_ mirrors
  /// it for the calendar backend. `armed` means pending for a one-shot or
  /// a train, queued for a persistent slot.
  struct Slot {
    Callback cb;  ///< empty for a persistent slot
    union {
      Train train{};    ///< one-shots and trains
      Handler handler;  ///< persistent slots
    };
    std::uint32_t gen{1};
    std::uint32_t origin{0};
    bool armed{false};
    bool timer{false};       ///< a sim::Timer wake-up, queued in timer_heap_
    bool persistent{false};  ///< never released; `handler` is live
  };
  static_assert(sizeof(Slot) <= 96, "a 10^4-event run keeps 10^4 slots");

  /// sim::Timer's wake-up: schedule_at_imported on the default stream, but
  /// queued in the timer heap.
  EventId schedule_timer_wakeup(std::uint64_t rank, Time birth, Time at, Callback cb) {
    return arm_with_rank(at, Time::zero(), 1, std::move(cb), birth, 0, rank, true);
  }

  EventId arm(Time at, Time stride, std::uint64_t count, Callback cb, Time birth,
              std::uint32_t origin);
  EventId arm_with_rank(Time at, Time stride, std::uint64_t count, Callback cb, Time birth,
                        std::uint32_t origin, std::uint64_t rank, bool timer);
  std::uint32_t acquire_slot();
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
  /// was released before the callback, which may have queued a new entry
  /// through it in the other heap.
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
