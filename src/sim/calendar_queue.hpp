#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/event_entry.hpp"
#include "sim/time.hpp"

namespace rss::sim {

/// Calendar queue (Brown '88) — the classic O(1)-amortized event structure
/// of ns-2-lineage simulators, provided as an alternative to the binary
/// heap inside Scheduler for workloads with dense, near-uniform event
/// spacing (packet serializations at line rate are exactly that).
///
/// Days (buckets) of width `day_width` cover one "year"; an event lands in
/// bucket (t / width) mod days and buckets hold sorted-by-(time, birth,
/// origin, seq) vectors. The structure resizes (doubling/halving days,
/// re-estimating width) when occupancy drifts outside [days/2, 2*days].
///
/// The queue stores plain EventEntry handles — the same 32-byte POD the
/// heap backend pushes — so switching backends moves zero callback state
/// and rebuilds during resize are flat memmoves, not std::function copies.
/// This class is a priority-queue primitive (push/pop-min), deliberately
/// mirroring the interface shape of the heap inside Scheduler so the
/// property suite can run both against identical random schedules and
/// demand identical pop order. bench/micro_substrate compares throughput.
class CalendarQueue {
 public:
  explicit CalendarQueue(std::size_t initial_days = 16,
                         Time initial_day_width = Time::microseconds(100));

  void push(const EventEntry& entry);

  /// Remove and return the earliest entry (ties by seq). The caller must
  /// check empty() first.
  EventEntry pop_min();

  /// Earliest entry without removing it (ties by seq). The caller must check
  /// empty() first. The reference is invalidated by any mutating call.
  [[nodiscard]] const EventEntry& peek_min() const;

  /// Remove the entry matching (at, birth, origin, seq) wherever it sits;
  /// returns true iff something was removed. O(log bucket + bucket shift) —
  /// lets a caller that tracks liveness (Scheduler cancellation) delete
  /// eagerly instead of lazily, which keeps the monotonic pop floor from
  /// advancing past still-relevant times.
  bool remove(Time at, Time birth, std::uint32_t origin, std::uint64_t seq);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t day_count() const { return buckets_.size(); }
  [[nodiscard]] Time day_width() const { return day_width_; }
  [[nodiscard]] std::uint64_t resizes() const { return resizes_; }

 private:
  [[nodiscard]] std::size_t bucket_of(Time t) const {
    const auto ticks =
        static_cast<std::uint64_t>(t.nanoseconds_count()) /
        static_cast<std::uint64_t>(day_width_.nanoseconds_count());
    return static_cast<std::size_t>(ticks % buckets_.size());
  }
  /// Bucket index holding the earliest entry. Requires size_ > 0.
  [[nodiscard]] std::size_t min_bucket() const;
  void maybe_resize();
  void rebuild(std::size_t new_days, Time new_width);

  /// Memoized min_bucket() result so the common peek-then-pop sequence
  /// (Scheduler::run_until does one per event) pays the O(days) scan once.
  /// Any mutation invalidates it.
  mutable std::optional<std::size_t> min_bucket_cache_;
  /// Estimate a good day width from a sample of queued entries (mean gap).
  [[nodiscard]] Time estimate_width() const;

  std::vector<std::vector<EventEntry>> buckets_;
  Time day_width_;
  std::size_t size_{0};
  Time last_popped_{Time::zero()};
  std::uint64_t resizes_{0};
};

}  // namespace rss::sim
