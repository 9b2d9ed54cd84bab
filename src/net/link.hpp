#pragma once

#include <cstddef>
#include <cstdint>

#include "net/packet.hpp"
#include "sim/event_entry.hpp"
#include "sim/random.hpp"
#include "sim/ring.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace rss::net {

class NetDevice;

/// Full-duplex point-to-point wire: pure propagation delay between two
/// NetDevices (serialization happens in the devices, which own the rate).
/// An optional Bernoulli loss model supports robustness experiments —
/// every loss is counted so tests can assert on it.
///
/// The transmit/config entry points are virtual so a link can span two
/// partitions (CrossPartitionLink stages deliveries through the partition
/// engine instead of pushing them onto the wire directly); devices and
/// experiments keep talking to the concrete PointToPointLink surface
/// either way.
///
/// A sender that applies its departures lazily (see NetDevice) hands them
/// over through depart(), keyed at their departure time, and its wire
/// follows it (track()): before delivering, the wire applies the sender's
/// departures that come first, and while no packet is on it, the wire keeps
/// the sender's packet in service armed at the key its delivery will have.
/// set_loss_rate and set_jitter first put both endpoints back on scheduled
/// completions, since a lossy or jittery direction is not a FIFO.
class PointToPointLink {
 public:
  PointToPointLink(sim::Simulation& simulation, sim::Time propagation_delay);
  virtual ~PointToPointLink() = default;

  PointToPointLink(const PointToPointLink&) = delete;
  PointToPointLink& operator=(const PointToPointLink&) = delete;

  /// Wire both endpoints. Must be called exactly once before traffic flows.
  void attach(NetDevice& a, NetDevice& b);

  /// Called by an endpoint device when a packet finishes serialization.
  virtual void transmit_from(const NetDevice& sender, const Packet& p);

  /// Lazy departures: put `p`, which left `sender` at `done`, on the wire
  /// with the key transmit_from would have drawn at that time.
  void depart(const NetDevice& sender, const Packet& p, sim::Time done);
  /// Lazy departures: make the wire from `sender` follow it (or stop).
  /// Throws unless the direction is a FIFO on the sender's own scheduler:
  /// no loss, no jitter, no partition cut.
  void track(NetDevice& sender, bool lazy);
  /// Lazy departures: `sender` started serving a packet while idle.
  void expect(const NetDevice& sender);

  /// Enable random loss with probability `p` per packet (0 disables).
  virtual void set_loss_rate(double p, sim::Rng rng);

  /// Add uniform random extra propagation delay in [0, max_jitter] per
  /// packet. Note this deliberately permits reordering (a packet with less
  /// jitter can overtake an earlier one) — that is the point: it exercises
  /// the receiver's out-of-order reassembly and the sender's dupack logic
  /// with realistic WAN pathologies.
  virtual void set_jitter(sim::Time max_jitter, sim::Rng rng);

  [[nodiscard]] sim::Time delay() const { return delay_; }
  /// Packets handed to an endpoint, summed over both directions. Every
  /// transmitted packet is exactly one of delivered, lost or in flight.
  /// A CrossPartitionLink's two directions run on different partition
  /// threads, so read its counters between runs.
  [[nodiscard]] std::uint64_t packets_delivered() const {
    return to_a_.delivered() + to_b_.delivered();
  }
  [[nodiscard]] std::uint64_t packets_lost() const { return lost_; }
  /// Packets transmitted but not yet delivered, summed over both
  /// directions.
  [[nodiscard]] std::size_t packets_in_flight() const { return to_a_.size() + to_b_.size(); }

 protected:
  /// One direction's in-flight packets. A fixed-delay direction is FIFO, so
  /// only its earliest delivery needs to be in the scheduler's queue (as in
  /// htsim's Pipe): the wire keeps the packets in a ring sorted by the
  /// scheduler key each would have been armed with on its own, and arms
  /// only the head. When the head fires it arms the next packet's key and
  /// then hands the packet up, so pop order is exactly that of one event
  /// per packet while the queue holds one event per busy direction.
  ///
  /// The armed delivery is the wire's persistent scheduler slot (see
  /// Scheduler): one slot for the wire's life, re-keyed in place when a
  /// packet overtakes the head and re-armed from its own firing. A wire
  /// following a lazy sender (track()) also arms, while its ring is empty,
  /// the sender's packet in service at (done + delay, done, origin, the
  /// origin's next rank): the key depart() will give it, since no one else
  /// draws from that origin. Its firing first applies the sender's due
  /// departures, that packet's among them, then delivers the head.
  class Wire {
   public:
    /// `simulation` is the destination's: the partition that owns `to`.
    Wire(sim::Simulation& simulation, sim::Time delay);
    /// The persistent slot (and a cross-partition handoff) holds the
    /// wire's address.
    Wire(const Wire&) = delete;
    Wire& operator=(const Wire&) = delete;

    void connect(NetDevice& to) { to_ = &to; }

    /// Put `p` on the wire with the scheduler key (at, birth, origin,
    /// rank) that a one-shot delivery event would carry: arrival time,
    /// transmit time, the sender's event origin and a rank drawn from that
    /// origin's stream at transmit.
    void push(const Packet& p, sim::Time at, sim::Time birth, std::uint32_t origin,
              std::uint64_t rank);

    /// Follow the lazy sender `from`, or stop following (nullptr).
    void follow(NetDevice* from);
    /// The followed sender started serving a packet while idle; arm its
    /// delivery unless packets are on the wire.
    void expect();

    [[nodiscard]] sim::Simulation& simulation() const { return *sim_; }
    [[nodiscard]] std::size_t size() const { return ring_.size(); }
    [[nodiscard]] std::uint64_t delivered() const { return delivered_; }

   private:
    struct InFlight {
      sim::EventEntry key;  ///< `slot` unused: only the order fields matter
      Packet packet;
    };

    static void fire(void* wire);
    void deliver();
    /// Arm the earliest delivery: the ring's head, else the followed
    /// sender's packet in service; disarm when there is neither.
    void arm_next();

    sim::Simulation* sim_;
    NetDevice* to_{nullptr};
    /// The lazy sender this wire follows, or nullptr.
    NetDevice* from_{nullptr};
    sim::Time delay_;
    /// In key order; a warm wire never allocates.
    sim::Ring<InFlight> ring_;
    sim::EventId slot_;  ///< persistent; armed while a delivery is due
    std::uint64_t delivered_{0};
    /// Set while the slot's own firing applies the sender's departures,
    /// which must not arm it for the packet it is about to deliver.
    bool firing_{false};
  };

  /// For CrossPartitionLink: endpoint a lives in `sim_a`, b in `sim_b`,
  /// and each direction's wire is driven by its destination's partition.
  PointToPointLink(sim::Simulation& sim_a, sim::Simulation& sim_b, sim::Time propagation_delay);

  /// The wire toward `sender`'s peer; throws unless `sender` is one of the
  /// attached endpoints.
  [[nodiscard]] Wire& wire_from(const NetDevice& sender);
  /// Put both attached endpoints back on scheduled completions.
  void schedule_departures();

  sim::Simulation& sim_;
  sim::Time delay_;
  NetDevice* end_a_{nullptr};
  NetDevice* end_b_{nullptr};

 private:
  double loss_rate_{0.0};
  sim::Rng loss_rng_{};
  sim::Time max_jitter_{sim::Time::zero()};
  sim::Rng jitter_rng_{};
  std::uint64_t lost_{0};
  Wire to_a_;
  Wire to_b_;
};

}  // namespace rss::net
