#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "metrics/timeseries.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"
#include "sim/timer.hpp"
#include "tcp/congestion_control.hpp"
#include "tcp/rtt_estimator.hpp"
#include "tcp/sequence.hpp"
#include "web100/mib.hpp"

namespace rss::tcp {

/// One-way bulk TCP sender: the full sender-side state machine —
/// slow-start / congestion avoidance through a pluggable CongestionControl,
/// duplicate-ACK counting, NewReno fast retransmit / fast recovery, RFC
/// 6298 retransmission timer with Karn's rule and exponential backoff,
/// go-back-N on timeout, and the Linux-2.4-style send-stall path: a segment
/// rejected by the local interface queue is *not* counted in flight, the
/// stall is recorded in the Web100 MIB, and the congestion-control hook
/// fires (which is exactly the behaviour the paper sets out to fix).
///
/// Connection establishment is elided (the simulation starts connections
/// "established", as classic simulator TCP agents do); sequence numbers
/// still use full 32-bit modular arithmetic internally via 64-bit offsets
/// mapped onto SeqNum for the wire.
class TcpSender final : public CcHost {
 public:
  struct Options {
    std::uint32_t flow_id{1};
    std::uint32_t dst_node{0};
    std::uint32_t mss{1460};             ///< payload bytes per segment
    std::uint32_t initial_seq{0};
    std::uint64_t rwnd_limit_bytes{1u << 30};  ///< cap if receiver never advertises
    RttEstimator::Options rtt{};
    /// Retry delay after a send-stall when nothing is in flight to ACK-clock
    /// a retry (pure safety net; with data in flight ACKs drive retries).
    sim::Time stall_retry_delay{sim::Time::milliseconds(10)};
    /// Process RFC 2018 SACK blocks and run RFC 6675-style pipe-limited
    /// loss recovery instead of NewReno inflation. The peer receiver must
    /// have enable_sack set too (blocks are simply absent otherwise and
    /// recovery silently degrades to NewReno).
    bool enable_sack{false};
    /// RFC 2861 congestion-window validation: after an idle period the
    /// cwnd is halved once per RTO elapsed (floored at the initial
    /// window), because an old cwnd says nothing about current path state.
    /// Matters for on-off applications; harmless for bulk flows.
    bool cwnd_validation{false};
    bool trace_cwnd{false};   ///< record (t, cwnd) into cwnd_trace()
    bool trace_stalls{false}; ///< record (t, cumulative stalls) into stall_trace()
    /// Negotiate ECN (RFC 3168): data segments leave ECT-marked so AQM
    /// queues may CE-mark instead of dropping, and the receiver's ECN-Echo
    /// feeds CongestionControl::on_ecn_feedback on every new ACK. The peer
    /// receiver must have its ecn option set too.
    bool ecn{false};
  };

  /// `node` must outlive the sender. The sender registers itself as the
  /// flow handler for `options.flow_id` on `node`.
  /// `egress` is the NIC the flow transmits through (for IFQ introspection);
  /// pass the device `node` routes dst through.
  TcpSender(sim::Simulation& simulation, net::Node& node, net::NetDevice& egress,
            std::unique_ptr<CongestionControl> cc, Options options);

  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  /// Append bytes to the (virtual) send buffer and try to transmit.
  void app_write(std::uint64_t bytes);

  /// Unlimited source: the sender always has data to send.
  void set_unlimited(bool unlimited);

  // --- CcHost interface (read/written by the congestion-control module) ---
  [[nodiscard]] double cwnd_bytes() const override { return cwnd_; }
  void set_cwnd_bytes(double cwnd) override;
  [[nodiscard]] double ssthresh_bytes() const override { return ssthresh_; }
  void set_ssthresh_bytes(double ssthresh) override;
  [[nodiscard]] std::uint32_t mss() const override { return opt_.mss; }
  [[nodiscard]] std::uint64_t flight_size_bytes() const override {
    return sent_offset_ - acked_offset_;
  }
  [[nodiscard]] sim::Time now() const override { return sim_.now(); }
  [[nodiscard]] std::size_t ifq_occupancy_packets() const override {
    return egress_.occupancy_packets();
  }
  [[nodiscard]] std::size_t ifq_capacity_packets() const override {
    return egress_.ifq_capacity();
  }
  [[nodiscard]] sim::Time srtt() const override {
    return rtt_.has_sample() ? rtt_.srtt() : sim::Time::zero();
  }

  // --- observability ---
  [[nodiscard]] const web100::Mib& mib() const { return mib_; }
  [[nodiscard]] web100::Mib& mib() { return mib_; }
  [[nodiscard]] const CongestionControl& congestion_control() const { return *cc_; }
  [[nodiscard]] std::uint64_t bytes_acked() const { return acked_offset_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return sent_offset_; }
  [[nodiscard]] bool in_fast_recovery() const { return in_recovery_; }
  [[nodiscard]] const RttEstimator& rtt_estimator() const { return rtt_; }
  /// Bytes currently marked received-above-the-hole by SACK.
  [[nodiscard]] std::uint64_t sacked_bytes() const;
  [[nodiscard]] const metrics::TimeSeries& cwnd_trace() const { return cwnd_trace_; }
  [[nodiscard]] const metrics::TimeSeries& stall_trace() const { return stall_trace_; }

  /// Goodput over [t0, t1] from cumulative acked bytes (Mbit/s).
  [[nodiscard]] double goodput_mbps(sim::Time t0, sim::Time t1) const;

 private:
  // --- wire helpers ---
  [[nodiscard]] SeqNum seq_of(std::uint64_t offset) const {
    return SeqNum{opt_.initial_seq + static_cast<std::uint32_t>(offset)};
  }
  [[nodiscard]] std::uint64_t offset_of_ack(SeqNum ack) const;

  void maybe_send();
  /// Transmit [offset, offset+len). Returns false on send-stall.
  bool send_segment(std::uint64_t offset, std::uint32_t len, bool retransmission);
  void on_packet(const net::Packet& p);
  void handle_new_ack(std::uint64_t ack_offset, const net::Packet& p);
  void handle_dup_ack();
  void retransmit_head();
  // --- SACK (RFC 2018 scoreboard + RFC 6675-lite recovery) ---
  void process_sack_blocks(const net::Packet& p);
  [[nodiscard]] std::uint64_t offset_of_seq(SeqNum seq) const;
  /// First un-SACKed, un-retransmitted hole at/after `from`, below `until`;
  /// nullopt when none.
  [[nodiscard]] std::optional<std::uint64_t> next_sack_hole(std::uint64_t from,
                                                            std::uint64_t until) const;
  /// Pipe-limited transmission during SACK recovery: retransmit holes
  /// first, then new data, while estimated pipe < cwnd.
  void sack_recovery_send();
  static void fire_rto_timer(void* self);  ///< rto_timer_'s handler
  void on_retransmission_timeout();
  void arm_rto_timer() { rto_timer_.arm_in(rtt_.rto()); }

  sim::Simulation& sim_;
  net::Node& node_;
  net::NetDevice& egress_;
  std::unique_ptr<CongestionControl> cc_;
  Options opt_;

  // Send buffer model: [0, app_offset_) written by app; [0, acked_offset_)
  // acked; [acked_offset_, sent_offset_) in flight; sent_offset_ <=
  // app_offset_. highest_sent_ tracks the retransmission frontier after
  // go-back-N.
  std::uint64_t app_offset_{0};
  std::uint64_t acked_offset_{0};
  std::uint64_t sent_offset_{0};
  std::uint64_t highest_sent_{0};
  bool unlimited_{false};

  double cwnd_{0};
  double ssthresh_{0};
  std::uint64_t rwnd_{0};

  int dupacks_{0};
  bool in_recovery_{false};
  std::uint64_t recover_offset_{0};
  /// SACK scoreboard: merged, disjoint [start, end) offset ranges the
  /// receiver holds above the cumulative ACK. Keyed by start.
  std::map<std::uint64_t, std::uint64_t> sacked_;
  /// Recovery retransmission frontier: holes below this were already
  /// retransmitted in the current episode.
  std::uint64_t sack_retx_frontier_{0};

  RttEstimator rtt_;
  std::optional<std::pair<std::uint64_t, sim::Time>> timed_segment_;
  /// RFC 2861 bookkeeping: when data last entered the network.
  std::optional<sim::Time> last_send_activity_;
  /// Restarted on every new ACK, so it re-arms lazily (see sim::Timer).
  sim::Timer rto_timer_;
  sim::EventId stall_retry_timer_{};

  web100::Mib mib_;
  net::PacketUidSource uid_source_;
  metrics::TimeSeries cwnd_trace_{"cwnd_bytes"};
  metrics::TimeSeries stall_trace_{"cumulative_send_stalls"};
};

}  // namespace rss::tcp
