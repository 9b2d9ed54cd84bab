#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rss::sim {

EventId Scheduler::schedule_at(Time at, Callback cb) {
  if (at < now_) throw std::invalid_argument("Scheduler: event scheduled in the past");
  if (!cb) throw std::invalid_argument("Scheduler: null callback");
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.cb = std::move(cb);
  slot.armed = true;
  slot.timer = false;
  ++live_;
  push_entry(EventEntry{at, now_, draw_rank(0), index, 0}, false);
  return EventId{index, slot.gen};
}

std::uint32_t Scheduler::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  slots_.emplace_back();
  heap_pos_.push_back(kNotQueued);
  if (backend_ == QueueBackend::kCalendarQueue) calendar_keys_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.cb = Callback{};
  slot.handler = Handler{};
  slot.armed = false;
  // Bump the generation so stale EventIds referencing this slot can never
  // match again. Generation 0 is reserved: EventId{slot 0, gen 0} would
  // collide with the inert default id.
  if (++slot.gen == 0) slot.gen = 1;
  free_slots_.push_back(index);
}

void Scheduler::push_entry(const EventEntry& entry, bool timer) {
  if (backend_ == QueueBackend::kCalendarQueue) {
    calendar_keys_[entry.slot] = entry;
    calendar_.push(entry);
    return;
  }
  Heap& heap = timer ? timer_heap_ : event_heap_;
  if (hole_ == &heap) {
    // Fused pop: overwrite the fired root and sift down once. The heap
    // below the hole is in order, so any key may take the root.
    hole_ = nullptr;
    sift_down(heap, 0, entry);
    return;
  }
  heap.emplace_back();
  sift_up(heap, heap.size() - 1, entry);
}

void Scheduler::sift_up(Heap& heap, std::size_t pos, EventEntry entry) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!event_entry_before(entry, heap[parent])) break;
    place(heap, pos, heap[parent]);
    pos = parent;
  }
  place(heap, pos, entry);
}

void Scheduler::sift_down(Heap& heap, std::size_t pos, EventEntry entry) {
  const std::size_t size = heap.size();
  for (;;) {
    const std::size_t first = 4 * pos + 1;
    if (first >= size) break;
    const std::size_t end = std::min(first + 4, size);
    std::size_t best = first;
    for (std::size_t child = first + 1; child < end; ++child) {
      if (event_entry_before(heap[child], heap[best])) best = child;
    }
    if (!event_entry_before(heap[best], entry)) break;
    place(heap, pos, heap[best]);
    pos = best;
  }
  place(heap, pos, entry);
}

void Scheduler::heap_erase(Heap& heap, std::size_t pos) {
  heap_pos_[heap[pos].slot] = kNotQueued;
  const EventEntry last = heap.back();
  heap.pop_back();
  if (pos == heap.size()) return;  // the hole was the last position
  if (pos > 0 && event_entry_before(last, heap[(pos - 1) / 4])) {
    sift_up(heap, pos, last);
  } else {
    sift_down(heap, pos, last);
  }
}

void Scheduler::close_hole() {
  Heap& heap = *hole_;
  hole_ = nullptr;
  const EventEntry last = heap.back();
  heap.pop_back();
  if (!heap.empty()) sift_down(heap, 0, last);
}

void Scheduler::unqueue(std::uint32_t index) {
  if (backend_ == QueueBackend::kCalendarQueue) {
    const EventEntry& key = calendar_keys_[index];
    (void)calendar_.remove(key.at, key.birth, key.origin, key.seq);
  } else if (heap_pos_[index] != kNotQueued) {
    heap_erase(slots_[index].timer ? timer_heap_ : event_heap_, heap_pos_[index]);
  }
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint32_t index = id.slot();
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (!slot.armed || slot.gen != id.gen() || slot.persistent()) return false;
  unqueue(index);
  --live_;
  release_slot(index);
  return true;
}

EventId Scheduler::add_slot(PersistentFn fn, void* context, bool timer) {
  if (fn == nullptr) throw std::invalid_argument("Scheduler: null persistent handler");
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.timer = timer;
  slot.handler = Handler{fn, context};
  return EventId{index, slot.gen};
}

Scheduler::Slot& Scheduler::persistent_slot(EventId id) {
  if (id.slot() >= slots_.size() || !slots_[id.slot()].persistent() ||
      slots_[id.slot()].gen != id.gen())
    throw std::invalid_argument("Scheduler: not a persistent slot");
  return slots_[id.slot()];
}

void Scheduler::arm_persistent(EventId id, std::uint32_t origin, std::uint64_t rank, Time birth,
                               Time at) {
  Slot& slot = persistent_slot(id);
  if (at < now_) throw std::invalid_argument("Scheduler: event scheduled in the past");
  if (birth > at) throw std::invalid_argument("Scheduler: event born after its own fire time");
  const EventEntry entry{at, birth, rank, id.slot(), origin};
  if (slot.armed) {
    const Heap& heap = slot.timer ? timer_heap_ : event_heap_;
    const EventEntry& queued = backend_ == QueueBackend::kCalendarQueue
                                   ? calendar_keys_[id.slot()]
                                   : heap[heap_pos_[id.slot()]];
    if (queued.at == at && queued.birth == birth && queued.seq == rank && queued.origin == origin)
      return;
    // Re-key: erase, then push. While a hole is open every entry of its
    // heap sorts after it, so the erase cannot disturb it, and the push
    // fills it.
    unqueue(id.slot());
  } else {
    slot.armed = true;
    ++live_;
  }
  push_entry(entry, slot.timer);
}

void Scheduler::disarm_persistent(EventId id) {
  Slot& slot = persistent_slot(id);
  if (!slot.armed) return;
  unqueue(id.slot());
  slot.armed = false;
  --live_;
}

void Scheduler::remove_persistent(EventId id) {
  disarm_persistent(id);
  release_slot(id.slot());
}

Time Scheduler::next_event_time() const {
  if (backend_ == QueueBackend::kCalendarQueue) {
    return calendar_.empty() ? Time::infinity() : calendar_.peek_min().at;
  }
  return std::min(earliest(event_heap_), earliest(timer_heap_));
}

Time Scheduler::earliest(const Heap& heap) const {
  if (hole_ != &heap) return heap.empty() ? Time::infinity() : heap.front().at;
  // Inside a callback that has pushed nothing into this heap yet: its
  // earliest entry is the least of the hole's children.
  Time next = Time::infinity();
  for (std::size_t child = 1; child < std::min<std::size_t>(heap.size(), 5); ++child) {
    next = std::min(next, heap[child].at);
  }
  return next;
}

bool Scheduler::step() {
  if (stop_requested_) return false;
  EventEntry entry;
  if (backend_ == QueueBackend::kCalendarQueue) {
    if (calendar_.empty()) return false;
    entry = calendar_.pop_min();
  } else {
    if (hole_ != nullptr) close_hole();  // step() re-entered from a callback
    Heap* heap = &event_heap_;
    if (!timer_heap_.empty() &&
        (event_heap_.empty() || event_entry_before(timer_heap_.front(), event_heap_.front()))) {
      heap = &timer_heap_;
    }
    if (heap->empty()) return false;
    // Fused pop: the entry stays at the root as a hole until the next push
    // into its heap fills it (push_entry) or the guard below closes it.
    entry = heap->front();
    heap_pos_[entry.slot] = kNotQueued;
    hole_ = heap;
  }
  // Closes a hole no push filled once step() returns — or unwinds, so a
  // throwing callback leaves no fired entry at the root.
  struct HoleGuard {
    Scheduler& s;
    ~HoleGuard() {
      if (s.hole_ != nullptr) s.close_hole();
    }
  };
  const HoleGuard guard{*this};
  now_ = entry.at;
  frontier_ = entry;
  ++executed_;
  Slot& fired = slots_[entry.slot];
  --live_;
  if (fired.persistent()) {
    // Called in place: the handler is two words, copied out first, so the
    // arena may grow under it.
    fired.armed = false;
    const Handler handler = fired.handler;
    handler.fn(handler.context);
    return true;
  }
  // Move the callback out of the arena before invoking it: the callback may
  // schedule (growing slots_ and relocating every Slot) or cancel, and must
  // never execute out of storage that can move underneath it. Freed before
  // the callback runs, so cancel(own id) from inside it reports false — the
  // event is no longer pending.
  Callback cb = std::move(fired.cb);
  release_slot(entry.slot);
  cb();
  return true;
}

void Scheduler::run() {
  stop_requested_ = false;
  while (step()) {
  }
}

void Scheduler::run_until(Time until) {
  stop_requested_ = false;
  while (!stop_requested_) {
    // Break on live_ == 0, not on next == infinity: an event scheduled
    // at exactly Time::infinity() must still fire under
    // run_until(Time::infinity()) ("events at exactly `until` do fire").
    if (live_ == 0 || next_event_time() > until) break;
    if (!step()) break;
  }
  if (stop_requested_ || until < now_) return;
  now_ = until;
  // Every key at or before `until` has fired; a later one has not.
  frontier_ = EventEntry{until, Time::infinity(), 0, 0, 0};
}

}  // namespace rss::sim
