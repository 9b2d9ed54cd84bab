#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace rss::metrics {

/// One timestamped observation.
struct Sample {
  sim::Time t;
  double value;
};

/// Append-only series of (time, value) observations with a few analysis
/// helpers used by the experiment harnesses (resampling onto a fixed grid,
/// rate-of-change, last value at / before a given time).
class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::string name) : name_{std::move(name)} {}

  void record(sim::Time t, double value) { samples_.push_back({t, value}); }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  /// Samples the series holds before recording one more reallocates.
  [[nodiscard]] std::size_t capacity() const { return samples_.capacity(); }
  [[nodiscard]] std::span<const Sample> samples() const { return samples_; }
  [[nodiscard]] const Sample& front() const { return samples_.front(); }
  [[nodiscard]] const Sample& back() const { return samples_.back(); }

  /// Most recent value recorded at or before `t`; `fallback` if none.
  [[nodiscard]] double value_at(sim::Time t, double fallback = 0.0) const;

  /// Step-function resample onto a regular grid [start, end] with the given
  /// period: value at each grid point is the last observation <= that time.
  [[nodiscard]] std::vector<Sample> resample(sim::Time start, sim::Time end,
                                             sim::Time period,
                                             double initial = 0.0) const;

  /// Series minimum / maximum / mean over values (0 for empty series).
  [[nodiscard]] double min_value() const;
  [[nodiscard]] double max_value() const;
  [[nodiscard]] double mean_value() const;

  /// Time-weighted average of a step signal over [t0, t1] — the right
  /// average for queue occupancy and cwnd, where samples are change points,
  /// not uniform ticks.
  [[nodiscard]] double time_weighted_mean(sim::Time t0, sim::Time t1,
                                          double initial = 0.0) const;

  /// Standard deviation of the observations at or after `t0`, measured
  /// around time_weighted_mean(t0, t1) — the steady-state dispersion
  /// ("control quality") metric the gain/sampling ablations report.
  /// 0 when no samples fall in the window.
  [[nodiscard]] double stddev_from(sim::Time t0, sim::Time t1) const;

  void clear() { samples_.clear(); }

 private:
  std::string name_;
  std::vector<Sample> samples_;
};

}  // namespace rss::metrics
