#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "net/data_rate.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace rss::net {

class PointToPointLink;

/// Statistics a NetDevice accumulates. `send_stalls` counts local-send
/// rejections by a full IFQ — the paper's central observable.
struct DeviceStats {
  std::uint64_t tx_packets{0};
  std::uint64_t tx_bytes{0};
  std::uint64_t rx_packets{0};
  std::uint64_t rx_bytes{0};
  std::uint64_t send_stalls{0};
};

/// Network interface: a finite interface queue (IFQ, Linux `txqueuelen`)
/// drained at line rate onto an attached point-to-point link.
///
/// This device is the *plant* of the paper. The host stack pushes packets
/// in bursts (2-per-ACK during slow-start); the wire drains them one
/// serialization time apart. When a push finds the IFQ full, the device
/// rejects it — the Linux `NET_XMIT_CN` "send-stall" — and notifies the
/// stall observer so TCP can react (and Web100 can count it).
///
/// Completions are scheduled: the device's persistent scheduler slot is
/// armed at the packet in service's completion and re-armed after each
/// one, at (now + the next packet's serialization time, birth now, default
/// stream, draw_rank(0)). A device that is a FIFO server nobody else draws
/// ranks for can instead apply its departures lazily (depart_lazily(), which
/// ScenarioBuilder calls for the NIC of a single-NIC host whose IFQ is
/// drop-tail or RED and whose link is lossless, jitter-free and within one
/// partition). Its packet in service departs at done = start + tx, and the
/// next starts at done (Lindley's d_k = max(a_k, d_{k-1}) + tx_k), so no
/// event is needed: catch_up() applies every departure whose key, (done,
/// start) on the default stream, comes before the scheduler's frontier —
/// tx stats, dequeue of the next packet, and the packet onto the wire keyed
/// at `done`, its rank drawn in FIFO order, as the completion would have.
/// Everything that reads or changes the device catches up first (send, the
/// accessors below), and so does the outgoing wire before it delivers.
/// Anything that breaks the conditions puts the device back on scheduled
/// completions (schedule_departures()): loss or jitter on its link, a
/// second device on its node, a fluid share, a new event origin.
class NetDevice {
 public:
  using ReceiveCallback = std::function<void(const Packet&, NetDevice&)>;
  using StallCallback = std::function<void(const Packet&)>;

  enum class TxResult {
    kQueued,    ///< admitted to the IFQ (possibly already on the wire)
    kRejected,  ///< IFQ full — send-stall
  };

  NetDevice(sim::Simulation& simulation, DataRate rate,
            std::unique_ptr<PacketQueue> ifq, std::string name);

  NetDevice(const NetDevice&) = delete;
  NetDevice& operator=(const NetDevice&) = delete;

  /// Push a packet from the upper layer (host stack or forwarding plane).
  TxResult send(const Packet& p);

  /// Wire attachment; the link delivers received packets via deliver_up().
  void attach_link(PointToPointLink* link) { link_ = link; }
  [[nodiscard]] PointToPointLink* link() const { return link_; }

  /// Called by the link when a packet arrives from the peer.
  void deliver_up(const Packet& p);

  void set_receive_callback(ReceiveCallback cb) { rx_cb_ = std::move(cb); }
  void set_stall_callback(StallCallback cb) { stall_cb_ = std::move(cb); }
  /// Current callbacks, exposed so observers (PacketTracer) can chain onto
  /// them without destroying the existing wiring.
  [[nodiscard]] const ReceiveCallback& receive_callback() const { return rx_cb_; }
  [[nodiscard]] const StallCallback& stall_callback() const { return stall_cb_; }
  [[nodiscard]] sim::Simulation& simulation() const { return sim_; }

  [[nodiscard]] const PacketQueue& ifq() const {
    catch_up();
    return *ifq_;
  }
  /// Mutable IFQ access for the fluid coupling, which pushes the aggregate's
  /// virtual backlog into the queue between events.
  [[nodiscard]] PacketQueue& mutable_ifq() {
    catch_up();
    return *ifq_;
  }
  [[nodiscard]] DataRate rate() const { return rate_; }
  [[nodiscard]] const DeviceStats& stats() const {
    catch_up();
    return stats_;
  }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool transmitting() const {
    catch_up();
    return busy_;
  }

  /// Occupancy including the packet currently being serialized — what
  /// Linux's qdisc-length probe would report, and the PID process variable.
  [[nodiscard]] std::size_t occupancy_packets() const {
    catch_up();
    return ifq_->size_packets() + (busy_ ? 1u : 0u);
  }
  [[nodiscard]] std::size_t ifq_capacity() const { return ifq_->capacity_packets(); }

  /// Fraction of line rate consumed by a fluid aggregate sharing this
  /// device (0 = all-packet). While nonzero, packet serialization slots are
  /// stretched to rate·(1 − share), each by the share when it starts; the
  /// share may change between any two completions.
  void set_fluid_share(double share);
  [[nodiscard]] double fluid_share() const { return fluid_share_; }

  /// Stable tie-break label for events this device emits onto a link
  /// (Scheduler origin streams; see EventEntry). The builder tags every
  /// device with its owning node's global spec index + 1, so same-timestamp
  /// deliveries order by (node, per-node rank) — a pure function of the
  /// topology — instead of scheduler insertion order, which is what keeps
  /// partitioned runs pop-order-identical to sequential ones. 0 (the
  /// default) is the shared legacy stream.
  void set_event_origin(std::uint32_t origin) {
    schedule_departures();
    event_origin_ = origin;
  }
  [[nodiscard]] std::uint32_t event_origin() const { return event_origin_; }

  /// Apply departures lazily from now on (see the class comment). The
  /// caller vouches that the node has no other device; the device checks
  /// the rest and throws std::logic_error unless it is idle, attached and
  /// tagged with a nonzero origin, has no fluid share and its link allows
  /// it. The IFQ must not decide at dequeue (drop-tail or RED, not CoDel).
  void depart_lazily();
  /// Back to scheduled completions: catch up, then arm the packet in
  /// service at its completion's key (done, start). A no-op unless lazy.
  void schedule_departures();
  [[nodiscard]] bool departs_lazily() const { return lazy_; }
  /// Apply the departures that come before the scheduler's frontier. The
  /// device is never a const object while lazy (depart_lazily() is not
  /// const), so the const accessors may catch up.
  void catch_up() const {
    if (lazy_) const_cast<NetDevice*>(this)->apply_departures();
  }
  /// Lazy only: the departure time of the packet in service as of the last
  /// catch-up, or nullopt when idle or not lazy. Does not catch up.
  [[nodiscard]] std::optional<sim::Time> lazy_departure() const {
    if (!lazy_ || !busy_) return std::nullopt;
    return done_;
  }

 private:
  static void fire(void* device) { static_cast<NetDevice*>(device)->complete_tx(); }
  void try_start_tx();
  void complete_tx();
  void apply_departures();

  sim::Simulation& sim_;
  DataRate rate_;
  std::unique_ptr<PacketQueue> ifq_;
  std::string name_;
  PointToPointLink* link_{nullptr};
  ReceiveCallback rx_cb_;
  StallCallback stall_cb_;
  DeviceStats stats_;
  /// The packet currently being serialized.
  Packet serializing_{};
  /// Persistent; armed while a scheduled completion is due.
  sim::EventId slot_;
  /// Lazy only: when the packet in service started and departs.
  sim::Time start_{};
  sim::Time done_{};
  double fluid_share_{0.0};
  std::uint32_t event_origin_{0};
  bool busy_{false};
  bool lazy_{false};
};

}  // namespace rss::net
