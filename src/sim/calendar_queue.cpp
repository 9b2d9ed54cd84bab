#include "sim/calendar_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace rss::sim {

namespace {

bool entry_before(const EventEntry& a, const EventEntry& b) {
  // Shared with Scheduler's heap so both backends pop identically.
  return event_entry_before(a, b);
}

}  // namespace

CalendarQueue::CalendarQueue(std::size_t initial_days, Time initial_day_width)
    : buckets_(initial_days), day_width_{initial_day_width} {
  if (initial_days == 0) throw std::invalid_argument("CalendarQueue: zero days");
  if (initial_day_width <= Time::zero())
    throw std::invalid_argument("CalendarQueue: non-positive day width");
}

void CalendarQueue::push(const EventEntry& entry) {
  if (entry.at < last_popped_)
    throw std::invalid_argument("CalendarQueue: push into the past");
  min_bucket_cache_.reset();
  auto& bucket = buckets_[bucket_of(entry.at)];
  // Buckets stay sorted; insertion keeps the common append case O(1).
  const auto pos = std::upper_bound(bucket.begin(), bucket.end(), entry, entry_before);
  bucket.insert(pos, entry);
  ++size_;
  maybe_resize();
}

std::size_t CalendarQueue::min_bucket() const {
  // Scan from the bucket of the last popped time forward one "year",
  // accepting only entries inside the current year window (classic calendar
  // scan); fall back to a global min when the year scan finds nothing
  // (sparse far-future events).
  const std::size_t days = buckets_.size();
  const auto width_ns = static_cast<std::uint64_t>(day_width_.nanoseconds_count());
  const auto start_ticks =
      static_cast<std::uint64_t>(last_popped_.nanoseconds_count()) / width_ns;

  for (std::size_t i = 0; i < days; ++i) {
    const std::uint64_t ticks = start_ticks + i;
    const auto& bucket = buckets_[static_cast<std::size_t>(ticks % days)];
    if (bucket.empty()) continue;
    const EventEntry& head = bucket.front();
    // Accept if the head belongs to this day of this year.
    if (static_cast<std::uint64_t>(head.at.nanoseconds_count()) / width_ns == ticks) {
      return static_cast<std::size_t>(ticks % days);
    }
  }

  // Direct search: find the globally earliest head.
  std::size_t best = days;
  for (std::size_t b = 0; b < days; ++b) {
    if (buckets_[b].empty()) continue;
    if (best == days || entry_before(buckets_[b].front(), buckets_[best].front())) best = b;
  }
  return best;
}

EventEntry CalendarQueue::pop_min() {
  if (size_ == 0) throw std::logic_error("CalendarQueue: pop from empty queue");
  auto& bucket = buckets_[min_bucket_cache_ ? *min_bucket_cache_ : min_bucket()];
  min_bucket_cache_.reset();
  const EventEntry out = bucket.front();
  bucket.erase(bucket.begin());
  --size_;
  last_popped_ = out.at;
  maybe_resize();
  return out;
}

const EventEntry& CalendarQueue::peek_min() const {
  if (size_ == 0) throw std::logic_error("CalendarQueue: peek into empty queue");
  if (!min_bucket_cache_) min_bucket_cache_ = min_bucket();
  return buckets_[*min_bucket_cache_].front();
}

bool CalendarQueue::remove(Time at, Time birth, std::uint32_t origin, std::uint64_t seq) {
  if (size_ == 0) return false;
  auto& bucket = buckets_[bucket_of(at)];
  const EventEntry probe{at, birth, seq, 0, origin};
  const auto it = std::lower_bound(bucket.begin(), bucket.end(), probe, entry_before);
  if (it == bucket.end() || it->at != at || it->birth != birth || it->origin != origin ||
      it->seq != seq)
    return false;
  min_bucket_cache_.reset();
  bucket.erase(it);
  --size_;
  maybe_resize();
  return true;
}

Time CalendarQueue::estimate_width() const {
  // Mean gap between sorted times of up to 32 sampled entries; fall back to
  // the current width when the sample is degenerate.
  std::vector<Time> sample;
  sample.reserve(32);
  for (const auto& bucket : buckets_) {
    for (const auto& entry : bucket) {
      sample.push_back(entry.at);
      if (sample.size() >= 32) break;
    }
    if (sample.size() >= 32) break;
  }
  if (sample.size() < 2) return day_width_;
  std::sort(sample.begin(), sample.end());
  const Time span = sample.back() - sample.front();
  const auto gaps = static_cast<std::int64_t>(sample.size() - 1);
  Time width = span / gaps;
  if (width <= Time::zero()) width = Time::nanoseconds(1);
  // Brown's rule of thumb: bucket width ~ 3x the mean gap.
  return width * 3;
}

void CalendarQueue::maybe_resize() {
  const std::size_t days = buckets_.size();
  if (size_ > 2 * days) {
    rebuild(days * 2, estimate_width());
  } else if (days > 16 && size_ < days / 2) {
    rebuild(days / 2, estimate_width());
  }
}

void CalendarQueue::rebuild(std::size_t new_days, Time new_width) {
  ++resizes_;
  std::vector<EventEntry> all;
  all.reserve(size_);
  for (auto& bucket : buckets_) {
    for (const auto& entry : bucket) all.push_back(entry);
    bucket.clear();
  }
  buckets_.assign(new_days, {});
  day_width_ = new_width;
  for (const auto& entry : all) {
    auto& bucket = buckets_[bucket_of(entry.at)];
    const auto pos = std::upper_bound(bucket.begin(), bucket.end(), entry, entry_before);
    bucket.insert(pos, entry);
  }
}

}  // namespace rss::sim
