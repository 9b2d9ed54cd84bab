#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace rss::scenario {

/// Run `fn(i)` for i in [0, count) across up to `max_threads` worker
/// threads (0 = the process-wide budget, execution_defaults(), then
/// hardware concurrency, with the `hardware_concurrency() == 0` "unknown"
/// case treated as 1). Each index is an *independent* simulation.
///
/// Exceptions thrown by `fn` propagate: the first one (by worker
/// observation order) is rethrown on the calling thread after all workers
/// join. An error also cancels the sweep — workers finish their in-flight
/// point, then stop claiming new ones, so the call returns promptly
/// instead of draining the remaining points.
void parallel_sweep(std::size_t count, const std::function<void(std::size_t)>& fn,
                    std::size_t max_threads = 0);

/// Map convenience: produce one result per input in parallel; results are
/// positionally stable.
template <typename In, typename Fn>
auto parallel_map(const std::vector<In>& inputs, Fn&& fn, std::size_t max_threads = 0)
    -> std::vector<decltype(fn(inputs.front()))> {
  using Out = decltype(fn(inputs.front()));
  std::vector<Out> results(inputs.size());
  parallel_sweep(
      inputs.size(), [&](std::size_t i) { results[i] = fn(inputs[i]); }, max_threads);
  return results;
}

}  // namespace rss::scenario
