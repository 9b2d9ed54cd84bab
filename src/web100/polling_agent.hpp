#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "metrics/timeseries.hpp"
#include "sim/simulation.hpp"
#include "web100/mib.hpp"

namespace rss::web100 {

/// Periodic snapshotter of a connection's MIB — the userspace half of
/// Web100: what `readvars`-style tooling did on the paper's testbed. Each
/// tracked variable becomes a TimeSeries sampled every `period`; the
/// figure harnesses read these series directly (e.g. FIG-1 plots
/// `SendStall` vs time).
class PollingAgent {
 public:
  /// `mib_source` is called at every poll and must return the live MIB
  /// (indirection so the agent survives sender reconstruction in sweeps).
  PollingAgent(sim::Simulation& simulation, std::function<const Mib&()> mib_source,
               sim::Time period);

  /// Begin polling (first sample at now + period; an initial zero-time
  /// sample is taken immediately so series start at t=0). A restart after
  /// stop() begins a fresh schedule from its own now().
  void start();
  void stop() { running_ = false; }

  /// Series for a variable name from kVariableNames; throws if never polled
  /// or unknown.
  [[nodiscard]] const metrics::TimeSeries& series(const std::string& variable) const;

  [[nodiscard]] const std::vector<std::string>& variable_names() const { return names_; }
  [[nodiscard]] sim::Time period() const { return period_; }
  [[nodiscard]] std::size_t polls_taken() const { return polls_; }

 private:
  void poll();

  sim::Simulation& sim_;
  std::function<const Mib&()> mib_source_;
  sim::Time period_;
  bool running_{false};
  /// Bumped by every start(); a tick whose chain is older ends it, so a
  /// stop() then start() before the old tick fires leaves one chain.
  std::uint64_t generation_{0};
  std::size_t polls_{0};
  std::vector<std::string> names_;
  /// One per kVariableNames entry, in its order; created by the first poll,
  /// so a poll only appends a sample to each.
  std::vector<metrics::TimeSeries> series_;
};

}  // namespace rss::web100
