#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <utility>

#include "sim/time.hpp"

namespace rss::web100 {

/// Per-connection instrumentation mirroring the Web100 TCP-KIS variable
/// set the paper used for its measurements (§4: "We use web100 to get
/// detailed statistics of the TCP state information").
///
/// Counters are monotone; gauges reflect the latest state. Names follow
/// the TCP-KIS document so harness output lines up with the paper's
/// vocabulary (SendStall is the star of Figure 1).
struct Mib {
  // --- data transfer counters ---
  std::uint64_t PktsOut{0};         ///< data segments sent (incl. retransmissions)
  std::uint64_t DataBytesOut{0};    ///< payload bytes sent (incl. retransmissions)
  std::uint64_t PktsRetrans{0};     ///< segments retransmitted
  std::uint64_t BytesRetrans{0};    ///< payload bytes retransmitted
  std::uint64_t ThruBytesAcked{0};  ///< cumulatively acknowledged payload bytes
  std::uint64_t AcksIn{0};          ///< ACK segments received
  std::uint64_t DupAcksIn{0};       ///< duplicate ACKs received

  // --- congestion signals (the paper's Figure 1 observables) ---
  std::uint64_t SendStall{0};           ///< local IFQ rejections (send-stalls)
  std::uint64_t CongestionSignals{0};   ///< all cwnd-reduction events
  std::uint64_t Timeouts{0};            ///< retransmission timer expirations
  std::uint64_t FastRetran{0};          ///< fast retransmits
  std::uint64_t OtherReductions{0};     ///< CWR entries from local congestion

  // --- window gauges ---
  double CurCwnd{0};        ///< bytes
  double MaxCwnd{0};        ///< bytes, high-water mark
  double CurSsthresh{0};    ///< bytes
  std::uint32_t CurRwinRcvd{0};  ///< last advertised window seen

  // --- phase accounting ---
  std::uint64_t SlowStartSegments{0};  ///< ACK-driven increments applied in slow-start
  std::uint64_t CongAvoidSegments{0};  ///< increments applied in congestion avoidance

  // --- timing gauges ---
  sim::Time SmoothedRTT{sim::Time::zero()};
  sim::Time CurRTO{sim::Time::zero()};
  sim::Time MinRTT{sim::Time::zero()};

  /// Record a cwnd gauge update, maintaining the high-water mark.
  void update_cwnd(double cwnd_bytes) {
    CurCwnd = cwnd_bytes;
    if (cwnd_bytes > MaxCwnd) MaxCwnd = cwnd_bytes;
  }
};

/// The variables flatten() reports, in its order: the one table behind the
/// polling agent's series and the stream output.
inline constexpr std::array<std::string_view, 21> kVariableNames{
    "PktsOut", "DataBytesOut", "PktsRetrans", "BytesRetrans", "ThruBytesAcked", "AcksIn",
    "DupAcksIn", "SendStall", "CongestionSignals", "Timeouts", "FastRetran", "OtherReductions",
    "CurCwnd", "MaxCwnd", "CurSsthresh", "CurRwinRcvd", "SlowStartSegments", "CongAvoidSegments",
    "SmoothedRTT_ms", "CurRTO_ms", "MinRTT_ms"};

/// (name, value) per kVariableNames entry, in table order. A fixed array,
/// so a poll allocates nothing.
using FlatMib = std::array<std::pair<std::string_view, double>, kVariableNames.size()>;

[[nodiscard]] FlatMib flatten(const Mib& mib);

std::ostream& operator<<(std::ostream& os, const Mib& mib);

}  // namespace rss::web100
