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
/// partitioning, and thread budget in one place. Before this existed the
/// knobs were scattered — WanPath/Dumbbell carried their own
/// Config::backend, the builder hid the auto-select constant, and
/// parallel_sweep guessed its own worker count. Those surfaces remain as
/// documented deprecated aliases that forward here.
///
/// Defaults reproduce the historical behavior exactly: one partition,
/// auto-selected backend, hardware thread budget.
struct ExecutionPolicy {
  /// Event-queue backend for every partition's scheduler; unset =
  /// auto-select from the estimated pending-event density (see
  /// resolve_backend).
  std::optional<sim::QueueBackend> backend{};
  /// Number of topology partitions to run in parallel; 1 = the classic
  /// single-scheduler run. Requests beyond the node count are clamped.
  std::size_t partitions{1};
  PartitionStrategy strategy{PartitionStrategy::kAuto};
  /// Worker-thread budget: for a partitioned run, threads driving
  /// partitions; for parallel_sweep, concurrent sweep points. 0 = one per
  /// hardware thread (with the hardware_concurrency()==0 report guarded).
  std::size_t threads{0};

  /// Estimated pending-event count at which the auto-select picks the
  /// calendar queue over the binary heap. Derived from the measured
  /// crossover on bench_micro_substrate (README "Choosing a QueueBackend"):
  /// a 32-flow dumbbell — 32 flows x (2 timers + 3 links) = 160 pending
  /// events — is where the calendar starts winning.
  static constexpr std::size_t kCalendarQueuePendingEvents = 160;

  friend bool operator==(const ExecutionPolicy&, const ExecutionPolicy&) = default;

  [[nodiscard]] bool partitioned() const { return partitions > 1; }
  [[nodiscard]] bool is_default() const { return *this == ExecutionPolicy{}; }

  /// Backend for one partition, given that partition's share of the
  /// spec's estimated pending events.
  [[nodiscard]] sim::QueueBackend resolve_backend(std::size_t estimated_pending) const {
    if (backend) return *backend;
    return estimated_pending >= kCalendarQueuePendingEvents
               ? sim::QueueBackend::kCalendarQueue
               : sim::QueueBackend::kBinaryHeap;
  }

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
/// resolution (explicit ExecutionPolicy > deprecated Config/spec backend >
/// these > built-in auto). The CLI drivers (rss_scenario, rss_artifacts)
/// install --jobs / --backend / --partitions here, which is how both
/// binaries share one flag surface and every nested parallel construct
/// (sweep workers x partition engine threads) draws on a single thread
/// budget. Not synchronized: install before any workers are spawned.
struct ExecutionDefaults {
  /// Total thread budget for the process; 0 = one per hardware thread.
  std::size_t thread_budget{0};
  /// Queue backend for scenarios that don't pin one (pop order is
  /// backend-independent, so this is a pure speed knob).
  std::optional<sim::QueueBackend> backend{};
  /// Partition count for scenarios that leave partitions at the default;
  /// 0 = no override.
  std::size_t partitions{0};
};

/// The mutable process-wide defaults instance.
[[nodiscard]] ExecutionDefaults& execution_defaults();

}  // namespace rss::scenario
