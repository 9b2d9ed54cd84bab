#include "web100/polling_agent.hpp"

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
  const auto values = flatten(mib_source_());
  if (names_.empty()) {
    names_.reserve(values.size());
    for (const auto& [name, _] : values) {
      names_.push_back(name);
      series_.emplace(name, metrics::TimeSeries{name});
    }
  }
  for (const auto& [name, value] : values) series_.at(name).record(sim_.now(), value);
  ++polls_;
}

const metrics::TimeSeries& PollingAgent::series(const std::string& variable) const {
  const auto it = series_.find(variable);
  if (it == series_.end())
    throw std::out_of_range("PollingAgent: unknown or never-polled variable: " + variable);
  return it->second;
}

}  // namespace rss::web100
