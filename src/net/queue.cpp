#include "net/queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace rss::net {

DropTailQueue::DropTailQueue(std::size_t capacity_packets) : capacity_{capacity_packets} {
  if (capacity_packets == 0) throw std::invalid_argument("DropTailQueue: zero capacity");
}

bool DropTailQueue::enqueue(const Packet& p) {
  if (queue_.size() + virtual_packets_ >= capacity_) {
    ++stats_.dropped;
    stats_.bytes_dropped += p.size_bytes();
    return false;
  }
  Packet admitted = p;
  maybe_step_mark(admitted, queue_.size() + virtual_packets_);
  queue_.push_back(admitted);
  bytes_ += admitted.size_bytes();
  ++stats_.enqueued;
  stats_.bytes_enqueued += admitted.size_bytes();
  stats_.peak_packets = std::max(stats_.peak_packets, queue_.size());
  return true;
}

std::optional<Packet> DropTailQueue::dequeue() {
  if (queue_.empty()) return std::nullopt;
  Packet p = queue_.front();
  queue_.pop_front();
  bytes_ -= p.size_bytes();
  ++stats_.dequeued;
  return p;
}

RedQueue::RedQueue(Options opt, sim::Rng rng) : opt_{opt}, rng_{rng} {
  if (opt_.capacity_packets == 0) throw std::invalid_argument("RedQueue: zero capacity");
  if (!(opt_.min_threshold < opt_.max_threshold))
    throw std::invalid_argument("RedQueue: min_threshold must be < max_threshold");
  if (opt_.queue_weight <= 0.0 || opt_.queue_weight > 1.0)
    throw std::invalid_argument("RedQueue: queue_weight out of (0,1]");
}

bool RedQueue::enqueue(const Packet& p) {
  // EWMA of instantaneous occupancy, updated on every arrival (the
  // idle-period refinement is omitted; our links rarely idle mid-run).
  // Virtual (fluid) backlog counts toward occupancy so AQM pressure
  // matches what packet cross-traffic would exert.
  avg_ = (1.0 - opt_.queue_weight) * avg_ +
         opt_.queue_weight * static_cast<double>(queue_.size() + virtual_packets_);

  bool drop = false;
  bool early = false;
  if (queue_.size() + virtual_packets_ >= opt_.capacity_packets || avg_ >= opt_.max_threshold) {
    drop = true;  // forced drop: hard full or average beyond max threshold
  } else if (avg_ > opt_.min_threshold) {
    // Linear ramp p_b, then the 1/(1 - count·p_b) uniformization from the
    // RED paper so inter-drop gaps are uniform rather than geometric.
    const double pb = opt_.max_drop_probability * (avg_ - opt_.min_threshold) /
                      (opt_.max_threshold - opt_.min_threshold);
    const double denom = 1.0 - static_cast<double>(count_since_drop_) * pb;
    const double pa = denom > 0.0 ? std::min(1.0, pb / denom) : 1.0;
    if (rng_.next_bool(pa)) {
      drop = true;
      early = true;
    } else {
      ++count_since_drop_;
    }
  } else {
    count_since_drop_ = 0;
  }

  Packet admitted = p;
  if (drop) {
    // ECN (RFC 3168): an *early* decision on an ECT packet becomes a CE
    // mark and the packet is admitted — the whole point of marking is to
    // signal before loss is necessary. Forced decisions (hard full, or
    // average beyond max threshold) still drop: at that point the queue
    // genuinely has no room to protect.
    if (early && admitted.ect) {
      admitted.ce = true;
      ++stats_.ce_marked;
      ++early_drops_;  // counts decision events, marked or dropped
      count_since_drop_ = 0;
    } else {
      ++stats_.dropped;
      stats_.bytes_dropped += admitted.size_bytes();
      if (early) {
        ++early_drops_;
        count_since_drop_ = 0;
      } else {
        ++forced_drops_;
      }
      return false;
    }
  } else {
    maybe_step_mark(admitted, queue_.size() + virtual_packets_);
  }

  queue_.push_back(admitted);
  bytes_ += admitted.size_bytes();
  ++stats_.enqueued;
  stats_.bytes_enqueued += admitted.size_bytes();
  stats_.peak_packets = std::max(stats_.peak_packets, queue_.size());
  return true;
}

std::optional<Packet> RedQueue::dequeue() {
  if (queue_.empty()) return std::nullopt;
  Packet p = queue_.front();
  queue_.pop_front();
  bytes_ -= p.size_bytes();
  ++stats_.dequeued;
  return p;
}

}  // namespace rss::net
