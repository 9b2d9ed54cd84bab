#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string_view>

#include "control/pid.hpp"
#include "sim/time.hpp"
#include "tcp/reno.hpp"

namespace rss::core {

/// Restricted Slow-Start — the paper's contribution (§3).
///
/// A PID controller paces window growth during slow-start:
///  * process variable: current occupancy of the local interface queue
///    (IFQ) the connection transmits through,
///  * set point: `setpoint_fraction` (default 0.9) of the maximum IFQ size,
///  * controller: `u = Kp (E + (1/Ti)∫E dt + Td dE/dt)` with gains from
///    Ziegler–Nichols tuning (`TuningResult::paper_rule()`).
///
/// The controller output, interpreted in MSS-per-ACK units and clamped to
/// [min_increment_mss, max_increment_mss], *replaces* the fixed +1 MSS
/// slow-start increment:
///  * far below the set point, the output saturates at +1 ⇒ stock
///    exponential doubling,
///  * approaching the set point the increment shrinks smoothly ⇒ growth is
///    paced instead of overflowing the IFQ,
///  * above the set point (burst overshoot) a negative output trims cwnd.
///
/// Congestion avoidance and loss recovery are untouched (the paper is
/// explicit that only the slow-start phase changes), so everything outside
/// on_ack-in-slow-start delegates to Reno. A send-stall — which this
/// algorithm exists to prevent, but can still occur under pathological
/// gains — reacts like Linux (CWR) and additionally re-centres the
/// integrator, since a stall proves the integral wound up past reality.
class RestrictedSlowStart : public tcp::RenoCongestionControl {
 public:
  struct Options {
    double setpoint_fraction{0.9};  ///< paper: "90% of the maximum IFQ size"
    /// Gains from Ziegler–Nichols (paper rule). Defaults were produced by
    /// the simulation-in-the-loop tuner on the canonical ANL–LBNL path
    /// (see the ext_tuning experiment and scenario::tune_restricted_slow_start).
    control::PidGains gains{0.12, 0.30, 0.10};
    double max_increment_mss{1.0};   ///< never grow faster than stock slow-start
    double min_increment_mss{-1.0};  ///< allow trimming on overshoot
    double derivative_filter_n{10.0};
    /// Integral separation: integrate only while |error| is within this
    /// fraction of the IFQ capacity. Below the path BDP the queue drains to
    /// empty every round (large positive error by physics, not by window
    /// deficit), and integrating there winds the controller up enough to
    /// push straight through the set point.
    double integral_separation_fraction{0.25};
    /// Hard burst guard: once occupancy is within this many packets of
    /// capacity, the increment is clamped to <= 0 regardless of controller
    /// output. Covers the 2-3 packet per-ACK send bursts the sampled
    /// occupancy cannot see. Enforced per ACK even in kernel-timer mode.
    double guard_packets{4.0};
    /// Controller sampling mode. Zero (default) recomputes the PID on
    /// every ACK — the event-driven ideal, which turns out to be
    /// unconditionally stable because the IFQ is local (no dead time).
    /// A positive period emulates the paper's kernel implementation, where
    /// the controller ran at timer granularity (Linux 2.4: HZ=100, 10 ms
    /// jiffies): the output is recomputed once per period and *held*
    /// between updates. The hold introduces the loop delay that makes
    /// Ziegler-Nichols closed-loop tuning meaningful (§3).
    sim::Time sample_period{sim::Time::zero()};
    RenoCongestionControl::Options reno{};
  };

  /// Options preset for the kernel-timer controller: 10 ms sample-and-hold
  /// (Linux 2.4 HZ=100) with gains from the simulation-in-the-loop
  /// Ziegler-Nichols run under that same period (the ext_tuning experiment:
  /// Kc ~ 0.078, Tc ~ 0.020 s -> paper rule 0.33/0.5/0.33). The per-ACK
  /// defaults above are NOT stable under a 10 ms hold — the hold adds loop
  /// delay, so the gain must drop accordingly.
  [[nodiscard]] static Options kernel_timer_options() {
    Options opt;
    opt.sample_period = sim::Time::milliseconds(10);
    opt.gains = control::PidGains{0.026, 0.010, 0.0066};
    return opt;
  }

  RestrictedSlowStart() : RestrictedSlowStart(Options{}) {}
  explicit RestrictedSlowStart(Options opt)
      : RenoCongestionControl(opt.reno),
        opt_{opt},
        pid_{opt.gains,
             control::OutputLimits{opt.min_increment_mss, opt.max_increment_mss},
             opt.derivative_filter_n} {}

  void on_ack(std::uint32_t acked_bytes) override;
  bool on_local_congestion() override;

  [[nodiscard]] std::string_view name() const override { return "restricted-slow-start"; }

  /// Set point in packets given the attached device's IFQ capacity.
  [[nodiscard]] double setpoint_packets() const;

  [[nodiscard]] const control::PidController& pid() const { return pid_; }
  [[nodiscard]] const Options& options() const { return opt_; }
  /// Last controller output in MSS-per-ACK units (diagnostic).
  [[nodiscard]] double last_increment_mss() const { return last_increment_; }

 private:
  Options opt_;
  control::PidController pid_;
  std::optional<sim::Time> last_update_;
  double last_increment_{0.0};
  double held_output_{0.0};  ///< kernel-timer mode: output held between samples
};

}  // namespace rss::core
