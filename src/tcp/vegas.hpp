#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "tcp/reno.hpp"

namespace rss::tcp {

/// TCP Vegas (Brakmo & Peterson '94) — the era's delay-based congestion
/// control, included as the conceptual cousin of Restricted Slow-Start:
/// both throttle *before* loss, Vegas by watching RTT inflation (queueing
/// anywhere on the path), RSS by watching the local IFQ directly.
/// The ext_variants experiment compares them on the paper path.
///
/// Implemented per the original paper:
///  * expected = cwnd / baseRTT,  actual = cwnd / RTT (both in segments/s),
///  * diff = (expected - actual) * baseRTT  (segments of queued data),
///  * congestion avoidance: diff < alpha -> cwnd += 1/cwnd per ACK;
///    diff > beta -> cwnd -= 1/cwnd per ACK; else hold,
///  * slow start: double only every *other* RTT, and leave slow start once
///    diff > gamma.
class VegasCongestionControl final : public RenoCongestionControl {
 public:
  struct VegasOptions {
    double alpha_segments{2.0};
    double beta_segments{4.0};
    double gamma_segments{1.0};  ///< slow-start exit threshold
    Options reno{};
  };

  VegasCongestionControl() = default;
  explicit VegasCongestionControl(VegasOptions opt)
      : RenoCongestionControl(opt.reno), vopt_{opt} {}

  void on_ack(std::uint32_t acked_bytes) override {
    CcHost& h = host();
    const auto mss = static_cast<double>(h.mss());
    const sim::Time srtt = h.srtt();
    if (srtt.is_zero()) {  // no RTT estimate yet: plain slow-start
      h.set_cwnd_bytes(h.cwnd_bytes() + std::min<double>(acked_bytes, mss));
      return;
    }
    if (base_rtt_.is_zero() || srtt < base_rtt_) base_rtt_ = srtt;

    const double cwnd_seg = h.cwnd_bytes() / mss;
    const double expected = cwnd_seg / base_rtt_.to_seconds();
    const double actual = cwnd_seg / srtt.to_seconds();
    const double diff_seg = (expected - actual) * base_rtt_.to_seconds();

    if (in_slow_start()) {
      if (diff_seg > vopt_.gamma_segments) {
        // Queue building: leave slow start right here (Vegas' early exit).
        h.set_ssthresh_bytes(h.cwnd_bytes());
        return;
      }
      // Double only every other RTT: approximate by growing 1 MSS per two
      // ACKs.
      if ((ack_parity_ ^= 1) == 0)
        h.set_cwnd_bytes(h.cwnd_bytes() + std::min<double>(acked_bytes, mss));
      return;
    }

    if (diff_seg < vopt_.alpha_segments) {
      h.set_cwnd_bytes(h.cwnd_bytes() + mss * mss / h.cwnd_bytes());
    } else if (diff_seg > vopt_.beta_segments) {
      h.set_cwnd_bytes(h.cwnd_bytes() - mss * mss / h.cwnd_bytes());
    }
    // else: inside the [alpha, beta] band — hold.
  }

  [[nodiscard]] std::string_view name() const override { return "vegas"; }
  [[nodiscard]] sim::Time base_rtt() const { return base_rtt_; }

 private:
  VegasOptions vopt_{};
  sim::Time base_rtt_{sim::Time::zero()};
  int ack_parity_{0};
};

}  // namespace rss::tcp
