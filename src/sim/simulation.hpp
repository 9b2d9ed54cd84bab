#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace rss::sim {

/// Facade bundling everything one simulation run needs: the event
/// scheduler, a master RNG, and run-control helpers. All simulation objects
/// hold a `Simulation&` — there are no globals, so independent runs can
/// execute concurrently on different threads (the sweep runner relies on
/// this).
class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1,
                      QueueBackend backend = QueueBackend::kBinaryHeap)
      : scheduler_{backend}, rng_{seed} {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] const Scheduler& scheduler() const { return scheduler_; }
  [[nodiscard]] Time now() const { return scheduler_.now(); }

  /// Master RNG; components should fork() their own streams from it so that
  /// adding a component does not perturb the draws seen by others.
  [[nodiscard]] Rng& rng() { return rng_; }

  EventId at(Time t, Scheduler::Callback cb) { return scheduler_.schedule_at(t, std::move(cb)); }
  EventId in(Time delay, Scheduler::Callback cb) {
    return scheduler_.schedule_in(delay, std::move(cb));
  }
  bool cancel(EventId id) { return scheduler_.cancel(id); }

  void run() { scheduler_.run(); }
  void run_until(Time t) { scheduler_.run_until(t); }
  void run_for(Time d) { scheduler_.run_until(scheduler_.now() + d); }
  void stop() { scheduler_.stop(); }

  /// Invoke `fn(now)` every `period` until it returns false or the
  /// simulation ends. First invocation at now() + period.
  void every(Time period, std::function<bool(Time)> fn);

 private:
  Scheduler scheduler_;
  Rng rng_;
};

}  // namespace rss::sim
