#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rss::sim {

EventId Scheduler::schedule_train(Time start, Time stride, std::uint64_t count,
                                  Callback cb) {
  if (count == 0) return EventId{};
  if (stride.is_negative())
    throw std::invalid_argument("Scheduler: negative train stride");
  if (count > 1) {
    if (start.is_infinite() || stride.is_infinite())
      throw std::invalid_argument("Scheduler: multi-event train at/with infinity");
    // The continuation in step() computes at + stride per firing; reject
    // trains whose last firing would overflow the int64 nanosecond clock
    // (which would silently run the heap backend's clock backwards).
    const auto start_ns = static_cast<std::uint64_t>(start.nanoseconds_count());
    const auto stride_ns = static_cast<std::uint64_t>(stride.nanoseconds_count());
    const auto headroom =
        static_cast<std::uint64_t>(Time::infinity().nanoseconds_count()) - start_ns;
    if (stride_ns != 0 && count - 1 > headroom / stride_ns)
      throw std::invalid_argument("Scheduler: train extends beyond representable time");
  }
  return arm(start, stride, count, std::move(cb), now_, 0);
}

EventId Scheduler::arm(Time at, Time stride, std::uint64_t count, Callback cb, Time birth,
                       std::uint32_t origin) {
  return arm_with_rank(at, stride, count, std::move(cb), birth, origin, draw_rank(origin));
}

EventId Scheduler::arm_with_rank(Time at, Time stride, std::uint64_t count, Callback cb,
                                 Time birth, std::uint32_t origin, std::uint64_t rank) {
  if (at < now_) throw std::invalid_argument("Scheduler: event scheduled in the past");
  if (!cb) throw std::invalid_argument("Scheduler: null callback");
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.cb = std::move(cb);
  slot.at = at;
  slot.birth = birth;
  slot.stride = stride;
  slot.seq = rank;
  slot.origin = origin;
  slot.remaining = count;
  slot.armed = true;
  ++live_;
  push_entry(EventEntry{at, birth, slot.seq, index, origin});
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
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.cb = Callback{};
  slot.armed = false;
  slot.remaining = 0;
  // Bump the generation so stale EventIds referencing this slot can never
  // match again. Generation 0 is reserved: EventId{slot 0, gen 0} would
  // collide with the inert default id.
  if (++slot.gen == 0) slot.gen = 1;
  free_slots_.push_back(index);
  --live_;
}

void Scheduler::push_entry(const EventEntry& entry) {
  if (backend_ == QueueBackend::kCalendarQueue) {
    calendar_.push(entry);
    return;
  }
  heap_.emplace_back();
  sift_up(heap_.size() - 1, entry);
}

void Scheduler::sift_up(std::size_t pos, EventEntry entry) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!event_entry_before(entry, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void Scheduler::sift_down(std::size_t pos, EventEntry entry) {
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first = 4 * pos + 1;
    if (first >= size) break;
    const std::size_t end = std::min(first + 4, size);
    std::size_t best = first;
    for (std::size_t child = first + 1; child < end; ++child) {
      if (event_entry_before(heap_[child], heap_[best])) best = child;
    }
    if (!event_entry_before(heap_[best], entry)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, entry);
}

void Scheduler::heap_erase(std::size_t pos) {
  heap_pos_[heap_[pos].slot] = kNotQueued;
  const EventEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // the hole was the last position
  if (pos > 0 && event_entry_before(last, heap_[(pos - 1) / 4])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint32_t index = id.slot();
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (!slot.armed || slot.gen != id.gen()) return false;
  // Either removal may find nothing when a train's current occurrence is
  // mid-flight (popped, callback executing): releasing the slot below is
  // what stops the train from re-enqueueing.
  if (backend_ == QueueBackend::kCalendarQueue) {
    (void)calendar_.remove(slot.at, slot.birth, slot.origin, slot.seq);
  } else if (heap_pos_[index] != kNotQueued) {
    heap_erase(heap_pos_[index]);
  }
  release_slot(index);
  return true;
}

Time Scheduler::next_event_time() const {
  if (backend_ == QueueBackend::kCalendarQueue) {
    return calendar_.empty() ? Time::infinity() : calendar_.peek_min().at;
  }
  return heap_.empty() ? Time::infinity() : heap_.front().at;
}

bool Scheduler::step() {
  if (stop_requested_) return false;
  EventEntry entry;
  if (backend_ == QueueBackend::kCalendarQueue) {
    if (calendar_.empty()) return false;
    entry = calendar_.pop_min();
  } else {
    if (heap_.empty()) return false;
    entry = heap_.front();
    heap_erase(0);
  }
  now_ = entry.at;
  ++executed_;
  // Move the callback out of the arena before invoking it: the callback may
  // schedule (growing slots_ and relocating every Slot) or cancel, and must
  // never execute out of storage that can move underneath it.
  Slot& fired = slots_[entry.slot];
  Callback cb = std::move(fired.cb);
  const std::uint32_t gen = fired.gen;
  const bool last = fired.remaining <= 1;
  if (last) {
    // Freed before the callback runs, so cancel(own id) from inside the
    // final firing reports false — the event is no longer pending.
    release_slot(entry.slot);
  } else {
    --fired.remaining;
  }
  cb();
  if (!last) {
    // Continue the train unless the callback cancelled it (generation
    // mismatch). The fresh seq drawn here matches the chained-schedule
    // pattern trains replace, which also sequenced each next event at the
    // previous firing — so pop order is byte-identical.
    Slot& slot = slots_[entry.slot];
    if (slot.armed && slot.gen == gen) {
      slot.cb = std::move(cb);
      slot.at = entry.at + slot.stride;
      slot.birth = now_;  // re-enqueued at fire time, like the chained pattern
      slot.seq = draw_rank(slot.origin);
      push_entry(EventEntry{slot.at, slot.birth, slot.seq, entry.slot, slot.origin});
    }
  }
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
    step();
  }
  if (!stop_requested_ && now_ < until) now_ = until;
}

}  // namespace rss::sim
