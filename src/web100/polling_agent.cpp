#include "web100/polling_agent.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

namespace rss::web100 {

PollingAgent::PollingAgent(sim::Simulation& simulation,
                           std::function<const Mib&()> mib_source, sim::Time period)
    : sim_{simulation}, mib_source_{std::move(mib_source)}, period_{period} {
  if (!mib_source_) throw std::invalid_argument("PollingAgent: null MIB source");
  if (period_ <= sim::Time::zero()) throw std::invalid_argument("PollingAgent: period must be > 0");
}

void PollingAgent::start() {
  if (running_) return;
  running_ = true;
  poll();  // t = now sample so every series has an origin point
  sim_.every(period_, [this, generation = ++generation_](sim::Time) {
    if (!running_ || generation != generation_) return false;
    poll();
    return true;
  });
}

void PollingAgent::poll() {
  if (series_.empty()) {
    names_.assign(kVariableNames.begin(), kVariableNames.end());
    series_.reserve(names_.size());
    for (const std::string& name : names_) series_.emplace_back(name);
  }
  const FlatMib values = flatten(mib_source_());
  for (std::size_t i = 0; i < values.size(); ++i) series_[i].record(sim_.now(), values[i].second);
  ++polls_;
}

const metrics::TimeSeries& PollingAgent::series(const std::string& variable) const {
  const auto it = std::find(kVariableNames.begin(), kVariableNames.end(), variable);
  if (series_.empty() || it == kVariableNames.end())
    throw std::out_of_range("PollingAgent: unknown or never-polled variable: " + variable);
  return series_[static_cast<std::size_t>(it - kVariableNames.begin())];
}

}  // namespace rss::web100
