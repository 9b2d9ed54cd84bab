#pragma once

#include <optional>

#include "control/ziegler_nichols.hpp"
#include "core/config.hpp"
#include "sim/time.hpp"

namespace rss::scenario {

/// Simulation-in-the-loop Ziegler–Nichols tuning of Restricted Slow-Start
/// (the paper's §3 procedure, automated end-to-end):
///
/// For each candidate proportional gain the harness builds a fresh WanPath,
/// runs RSS with P-only control and symmetric ±1 MSS/ACK authority, and
/// records the IFQ occupancy every `sample_period`. The
/// ZieglerNicholsTuner ramps/bisects the gain until the occupancy limit-
/// cycles around the set point, yielding (Kc, Tc); the paper rule
/// Kp = 0.33·Kc, Ti = 0.5·Tc, Td = 0.33·Tc turns that into deployable
/// gains.
struct TuneOptions {
  core::CanonicalPath path{};
  double setpoint_fraction{0.9};
  /// Controller sampling period during the probe AND for the deployed
  /// gains. The paper's kernel implementation ran at timer granularity
  /// (Linux 2.4: HZ=100 -> 10 ms); the sample-and-hold is what gives the
  /// loop enough delay to oscillate at all — the per-ACK event-driven
  /// controller is unconditionally stable and Z-N cannot find Kc on it
  /// (`rss_artifacts --run ext_tuning` prints both stories).
  sim::Time controller_period{sim::Time::milliseconds(10)};
  /// Samples before this are discarded: the sub-BDP slow-start ramp has an
  /// intrinsic fill/drain sawtooth that would otherwise be misread as a
  /// closed-loop limit cycle at any gain.
  sim::Time warmup{sim::Time::seconds(5)};
  sim::Time duration{sim::Time::seconds(20)};   ///< per-experiment horizon
  sim::Time sample_period{sim::Time::milliseconds(5)};
  control::ZieglerNicholsTuner::Options tuner{};

  TuneOptions() {
    // ACK-burst jitter of +-2-3 packets around the set point is not an
    // oscillation; require a limit cycle of meaningful amplitude (the
    // detector floors at flat_threshold * mean|PV| ~ 0.08 * 90 ~ 7 pkts).
    tuner.detector.flat_threshold = 0.08;
    tuner.kp_initial = 0.05;
    tuner.kp_max = 1e3;
  }
};

/// Returns nullopt if no gain destabilizes the loop (does not happen on
/// sane paths; guarded for robustness).
[[nodiscard]] std::optional<control::TuningResult> tune_restricted_slow_start(
    const TuneOptions& options);

}  // namespace rss::scenario
