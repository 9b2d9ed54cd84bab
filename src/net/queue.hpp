#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/ring.hpp"

namespace rss::net {

/// Occupancy/drop statistics every queue maintains. `peak_packets` is the
/// high-water mark — the motivation section of the paper is precisely about
/// this value hitting capacity.
struct QueueStats {
  std::uint64_t enqueued{0};
  std::uint64_t dequeued{0};
  std::uint64_t dropped{0};
  std::uint64_t bytes_enqueued{0};
  std::uint64_t bytes_dropped{0};
  std::uint64_t ce_marked{0};  ///< ECT packets CE-marked instead of dropped
  std::size_t peak_packets{0};
};

/// Abstract FIFO of packets with an admission policy. Implementations
/// decide drop behaviour; the owner (NetDevice or Link egress) decides
/// drain timing.
class PacketQueue {
 public:
  virtual ~PacketQueue() = default;

  /// Try to admit a packet. Returns false if the packet was dropped (the
  /// caller turns that into a send-stall or a wire drop as appropriate).
  [[nodiscard]] virtual bool enqueue(const Packet& p) = 0;

  /// Remove and return the head packet, or nullopt when empty.
  [[nodiscard]] virtual std::optional<Packet> dequeue() = 0;

  [[nodiscard]] virtual std::size_t size_packets() const = 0;
  [[nodiscard]] virtual std::size_t size_bytes() const = 0;
  [[nodiscard]] virtual std::size_t capacity_packets() const = 0;
  [[nodiscard]] virtual bool empty() const { return size_packets() == 0; }

  [[nodiscard]] const QueueStats& stats() const { return stats_; }

  /// Occupancy as a fraction of packet capacity — the PID process variable.
  /// Includes the virtual (fluid) backlog so controllers and AQM see the
  /// same pressure packet cross-traffic would exert.
  [[nodiscard]] double fill_fraction() const {
    const std::size_t cap = capacity_packets();
    if (cap == 0) return 0.0;
    return static_cast<double>(size_packets() + virtual_packets_) / static_cast<double>(cap);
  }

  /// Total byte depth: real queued bytes plus the virtual fluid backlog.
  /// This is the introspection surface the fluid coupling reads — no
  /// friend-class poking at implementation containers.
  [[nodiscard]] std::size_t byte_depth() const { return size_bytes() + virtual_bytes_; }

  /// Install the fluid aggregate's share of this queue's occupancy. A
  /// FluidQueueCoupling calls this once per integration stride; admission
  /// policies treat the virtual packets as if they were real occupants so
  /// foreground flows see the depth trajectory packet cross-traffic would
  /// produce.
  void set_virtual_backlog(std::size_t packets, std::size_t bytes) {
    virtual_packets_ = packets;
    virtual_bytes_ = bytes;
  }

  [[nodiscard]] std::size_t virtual_packets() const { return virtual_packets_; }
  [[nodiscard]] std::size_t virtual_bytes() const { return virtual_bytes_; }

  /// DCTCP-style step marking (RFC 8257 §3.1): when non-zero, an ECT packet
  /// admitted while the instantaneous occupancy (real + virtual) is at or
  /// above `packets` is CE-marked. Zero (the default) disables the step —
  /// classic drop behaviour is untouched. Works on every discipline, so a
  /// plain drop-tail switch can serve as the shallow-threshold DCTCP
  /// fabric, which is exactly how the scheme is deployed.
  void set_ecn_step_threshold(std::size_t packets) { ecn_step_threshold_ = packets; }
  [[nodiscard]] std::size_t ecn_step_threshold() const { return ecn_step_threshold_; }

 protected:
  /// Apply the step-marking rule to a packet that is about to be admitted;
  /// `occupancy` is the pre-admission depth in packets (real + virtual).
  void maybe_step_mark(Packet& p, std::size_t occupancy) {
    if (ecn_step_threshold_ == 0 || !p.ect || p.ce) return;
    if (occupancy >= ecn_step_threshold_) {
      p.ce = true;
      ++stats_.ce_marked;
    }
  }

  QueueStats stats_;
  std::size_t virtual_packets_{0};
  std::size_t virtual_bytes_{0};
  std::size_t ecn_step_threshold_{0};
};

/// Classic tail-drop FIFO bounded in packets — the Linux `txqueuelen`
/// interface queue and the default router queue discipline of the paper's
/// era. Capacity 100 packets matches the Linux 2.4 txqueuelen default.
class DropTailQueue final : public PacketQueue {
 public:
  explicit DropTailQueue(std::size_t capacity_packets = 100);

  [[nodiscard]] bool enqueue(const Packet& p) override;
  [[nodiscard]] std::optional<Packet> dequeue() override;
  [[nodiscard]] std::size_t size_packets() const override { return queue_.size(); }
  [[nodiscard]] std::size_t size_bytes() const override { return bytes_; }
  [[nodiscard]] std::size_t capacity_packets() const override { return capacity_; }

 private:
  std::size_t capacity_;
  std::size_t bytes_{0};
  sim::Ring<Packet> queue_;
};

/// Random Early Detection (Floyd & Jacobson '93): probabilistic marking/
/// dropping between min_th and max_th of EWMA average occupancy. Provided
/// as the era's standard AQM so dumbbell experiments can contrast tail-drop
/// routers with AQM routers; RSS itself targets the host IFQ, which is
/// always tail-drop.
class RedQueue final : public PacketQueue {
 public:
  struct Options {
    std::size_t capacity_packets{100};
    double min_threshold{15.0};   ///< packets
    double max_threshold{45.0};   ///< packets
    double max_drop_probability{0.1};
    double queue_weight{0.002};   ///< EWMA weight w_q
  };

  RedQueue(Options opt, sim::Rng rng);

  [[nodiscard]] bool enqueue(const Packet& p) override;
  [[nodiscard]] std::optional<Packet> dequeue() override;
  [[nodiscard]] std::size_t size_packets() const override { return queue_.size(); }
  [[nodiscard]] std::size_t size_bytes() const override { return bytes_; }
  [[nodiscard]] std::size_t capacity_packets() const override { return opt_.capacity_packets; }

  [[nodiscard]] double average_occupancy() const { return avg_; }
  [[nodiscard]] std::uint64_t early_drops() const { return early_drops_; }
  [[nodiscard]] std::uint64_t forced_drops() const { return forced_drops_; }

 private:
  Options opt_;
  sim::Rng rng_;
  sim::Ring<Packet> queue_;
  std::size_t bytes_{0};
  double avg_{0.0};
  std::uint64_t count_since_drop_{0};  ///< packets since last early drop (RED's `count`)
  std::uint64_t early_drops_{0};
  std::uint64_t forced_drops_{0};
};

}  // namespace rss::net
