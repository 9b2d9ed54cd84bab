#pragma once

#include <cstddef>

#include <optional>

#include "sim/scheduler.hpp"

namespace rss::scenario {

/// How ScenarioBuilder assigns topology nodes to partitions.
enum class PartitionStrategy {
  kAuto,   ///< latency-guided agglomeration (sim::partition_by_latency)
  kBlock,  ///< contiguous blocks of spec node order (sim::partition_blocks)
};

/// The single execution-configuration object for a scenario: queue backend,
/// partitioning, and thread budget in one place.
///
/// Defaults reproduce the classic run: one partition, the heap, hardware
/// thread budget.
struct ExecutionPolicy {
  /// Event-queue backend for every partition's scheduler; unset = the
  /// heap. Optional so that a spec which pins it serializes the pin.
  std::optional<sim::QueueBackend> backend{};
  /// Number of topology partitions to run in parallel; 1 = the classic
  /// single-scheduler run. Requests beyond the node count are clamped.
  std::size_t partitions{1};
  PartitionStrategy strategy{PartitionStrategy::kAuto};
  /// Worker-thread budget: for a partitioned run, threads driving
  /// partitions; for parallel_sweep, concurrent sweep points. 0 = one per
  /// hardware thread (with the hardware_concurrency()==0 report guarded).
  std::size_t threads{0};

  friend bool operator==(const ExecutionPolicy&, const ExecutionPolicy&) = default;

  [[nodiscard]] bool partitioned() const { return partitions > 1; }
  [[nodiscard]] bool is_default() const { return *this == ExecutionPolicy{}; }

  /// std::thread::hardware_concurrency(), with the standard-permitted
  /// 0 = "unknown" report mapped to 1.
  [[nodiscard]] static std::size_t hardware_threads();

  /// Worker count for `work_items` independent work items under this
  /// policy's thread budget: min(budget, work_items), never 0. A zero
  /// budget falls back to the process-wide default (execution_defaults()),
  /// then to hardware_threads().
  [[nodiscard]] std::size_t resolve_threads(std::size_t work_items) const;
};

/// Process-wide execution defaults — the lowest-precedence layer of policy
/// resolution (an explicit ExecutionPolicy wins). The CLI drivers
/// (rss_scenario, rss_artifacts) install --jobs / --partitions here, which
/// is how both binaries share one flag surface and every nested parallel
/// construct (sweep workers x partition engine threads) draws on a single
/// thread budget. Not synchronized: install before any workers are spawned.
struct ExecutionDefaults {
  /// Total thread budget for the process; 0 = one per hardware thread.
  std::size_t thread_budget{0};
  /// Partition count for scenarios that leave partitions at the default;
  /// 0 = no override.
  std::size_t partitions{0};
};

/// The mutable process-wide defaults instance.
[[nodiscard]] ExecutionDefaults& execution_defaults();

}  // namespace rss::scenario
