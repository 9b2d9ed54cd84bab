#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"
#include "sim/timer.hpp"
#include "tcp/sequence.hpp"

namespace rss::tcp {

/// TCP receiver: cumulative acknowledgments with out-of-order reassembly
/// and the standard delayed-ACK policy (ACK every second full-sized
/// segment, or when the delayed-ACK timer fires; immediate duplicate ACK on
/// any out-of-order arrival or gap fill, which is what drives the sender's
/// fast retransmit).
class TcpReceiver {
 public:
  struct Options {
    std::uint32_t flow_id{1};
    std::uint32_t peer_node{0};          ///< where ACKs are sent
    std::uint32_t initial_seq{0};        ///< must match the sender's ISS
    std::uint32_t advertised_window{1u << 30};
    /// ACK after this many unacknowledged in-order arrivals (2 = RFC 1122).
    int ack_every{2};
    sim::Time delayed_ack_timeout{sim::Time::milliseconds(100)};
    /// Attach RFC 2018 SACK blocks (up to 3, most recent first) to every
    /// ACK while the reassembly buffer holds out-of-order data.
    bool enable_sack{false};
    /// Linux "quickack" mode: ACK the first N in-order segments
    /// immediately (no delaying), which is what 2.4 did while the
    /// connection ramped — it roughly doubles the early slow-start ACK
    /// clock. 0 disables.
    std::uint64_t quickack_segments{0};
    /// Echo CE marks back to the sender using the DCTCP discipline (RFC
    /// 8257 §3.2): every ACK carries the CE state of the data it covers,
    /// and a CE-state *change* forces an immediate ACK carrying the old
    /// state so the sender's mark accounting stays byte-accurate.
    bool ecn{false};
  };

  TcpReceiver(sim::Simulation& simulation, net::Node& node, Options options);

  TcpReceiver(const TcpReceiver&) = delete;
  TcpReceiver& operator=(const TcpReceiver&) = delete;

  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_received_; }
  [[nodiscard]] std::uint64_t packets_received() const { return packets_received_; }
  [[nodiscard]] std::uint64_t out_of_order_packets() const { return out_of_order_; }
  [[nodiscard]] std::uint64_t duplicate_packets() const { return duplicates_; }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }
  [[nodiscard]] std::uint64_t ce_received() const { return ce_received_; }
  [[nodiscard]] SeqNum rcv_nxt() const { return rcv_nxt_; }

 private:
  void on_packet(const net::Packet& p);
  static void fire_delack_timer(void* self);  ///< delack_timer_'s handler
  void send_ack();
  void fill_sack_blocks(net::TcpHeader& header) const;

  net::Node& node_;
  Options opt_;

  SeqNum rcv_nxt_;
  /// An out-of-order segment: start seq and length.
  struct Buffered {
    SeqNum start;
    std::uint32_t length;
  };
  /// Out-of-order segments, sorted by start in modular (wrap-safe) order,
  /// one per start. A vector keeps its capacity, so once it has held a
  /// window's worth of holes, buffering allocates nothing (a map allocated
  /// a node per segment).
  std::vector<Buffered> ooo_;

  std::uint64_t bytes_received_{0};
  std::uint64_t packets_received_{0};
  std::uint64_t out_of_order_{0};
  std::uint64_t duplicates_{0};
  std::uint64_t acks_sent_{0};
  std::uint64_t ce_received_{0};
  /// CE state of the most recent data arrival — the bit every outgoing ACK
  /// echoes while the ecn option is on (DCTCP state machine).
  bool ce_state_{false};
  int unacked_arrivals_{0};
  /// Armed and disarmed every other segment, so it re-arms lazily (see
  /// sim::Timer).
  sim::Timer delack_timer_;
  net::PacketUidSource uid_source_;
  /// Start of the most recently buffered out-of-order segment; its merged
  /// block goes first in the SACK list (RFC 2018 §4).
  std::optional<SeqNum> last_ooo_seq_;
};

}  // namespace rss::tcp
