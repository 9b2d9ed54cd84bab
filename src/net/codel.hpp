#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "net/queue.hpp"
#include "sim/ring.hpp"
#include "sim/time.hpp"

namespace rss::sim {
class Simulation;
}  // namespace rss::sim

namespace rss::net {

/// CoDel — Controlled Delay AQM (Nichols & Jacobson, RFC 8289). Unlike
/// RED, which reacts to queue *length*, CoDel tracks per-packet sojourn
/// time: when the standing delay stays above `target` for a full
/// `interval`, it enters a dropping state and sheds head packets at a
/// rate that grows with the square root of the drop count (the control
/// law), draining the standing queue while letting bursts through.
///
/// ECN: when the control law elects a packet and that packet is ECT, it
/// is CE-marked and delivered instead of dropped (RFC 8289 §4.1).
///
/// One deliberate deviation, for the owning NetDevice's contract: the last
/// remaining packet is never dropped at dequeue — a non-empty queue always
/// yields a packet, which the device's transmit path relies on. CoDel's own
/// "queue below one MTU exits the dropping state" rule makes this nearly a
/// no-op in practice.
///
/// The fluid virtual backlog counts toward admission capacity (like the
/// other disciplines) but not toward sojourn — fluid bytes carry no
/// timestamps, so CoDel's delay law sees only real packets.
class CodelQueue final : public PacketQueue {
 public:
  struct Options {
    std::size_t capacity_packets{100};
    sim::Time target{sim::Time::milliseconds(5)};     ///< acceptable standing delay
    sim::Time interval{sim::Time::milliseconds(100)}; ///< sliding window (~worst RTT)
  };

  CodelQueue(Options opt, const sim::Simulation& sim);

  [[nodiscard]] bool enqueue(const Packet& p) override;
  [[nodiscard]] std::optional<Packet> dequeue() override;
  [[nodiscard]] std::size_t size_packets() const override { return queue_.size(); }
  [[nodiscard]] std::size_t size_bytes() const override { return bytes_; }
  [[nodiscard]] std::size_t capacity_packets() const override { return opt_.capacity_packets; }

  /// Packets shed (or CE-marked) by the delay control law, as opposed to
  /// tail drops at hard capacity.
  [[nodiscard]] std::uint64_t law_drops() const { return law_drops_; }
  [[nodiscard]] std::uint64_t tail_drops() const { return tail_drops_; }
  [[nodiscard]] const Options& options() const { return opt_; }

 private:
  struct Entry {
    Packet packet;
    sim::Time enqueued_at;
  };

  /// Pop the head and decide whether the control law may act on it.
  struct Popped {
    Entry entry;
    bool ok_to_drop{false};
  };
  [[nodiscard]] std::optional<Popped> pop_head(sim::Time now);
  [[nodiscard]] sim::Time control_law(sim::Time t) const;

  Options opt_;
  const sim::Simulation& sim_;
  sim::Ring<Entry> queue_;
  std::size_t bytes_{0};
  bool dropping_{false};
  sim::Time first_above_time_{sim::Time::zero()};
  sim::Time drop_next_{sim::Time::zero()};
  std::uint32_t count_{0};
  std::uint32_t last_count_{0};
  std::uint64_t law_drops_{0};
  std::uint64_t tail_drops_{0};
};

}  // namespace rss::net
