#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"

namespace rss::sim {

class Simulation;

// ---------------------------------------------------------------------------
// Graph partitioning
// ---------------------------------------------------------------------------

/// One undirected edge of the partitioning graph: node indices plus the
/// link's one-way propagation latency. The latency is what partitioning
/// optimizes for — edges *inside* a partition cost nothing, edges *cut*
/// between partitions bound the conservative lookahead window.
struct PartitionEdge {
  std::size_t a{0};
  std::size_t b{0};
  Time latency{Time::zero()};
};

/// Latency-guided agglomeration: start from singletons and greedily merge
/// the lowest-latency edges first (ties by edge declaration order), so the
/// *highest*-latency edges end up on the cut and the lookahead window is as
/// wide as the topology allows. Merges respect a soft size cap of
/// ceil(node_count / parts); when the cap alone would strand more than
/// `parts` components a second uncapped pass finishes the job. Purely a
/// function of its arguments — no RNG, no iteration-order hazards — so a
/// given spec always partitions the same way.
///
/// Returns one partition label per node, contiguous 0..P-1, numbered by
/// first appearance in node order. P can exceed `parts` only when the graph
/// itself has more connected components than `parts`.
///
/// `pinned` lists edge indices (into `edges`) whose endpoints must share a
/// partition: they are united first, in index order, ignoring the balance
/// cap. The builder pins every edge on a fluid flow's route so fluid
/// integration stays partition-local and never crosses a HandoffChannel.
[[nodiscard]] std::vector<std::uint32_t> partition_by_latency(
    std::size_t node_count, const std::vector<PartitionEdge>& edges, std::size_t parts,
    const std::vector<std::size_t>& pinned = {});

/// Contiguous blocks of the node order: node i goes to partition
/// i * parts / node_count. Ignores the edge structure entirely — useful in
/// tests that need a predictable (or adversarial) assignment.
[[nodiscard]] std::vector<std::uint32_t> partition_blocks(std::size_t node_count,
                                                          std::size_t parts);

/// Number of partitions an assignment uses (max label + 1; 0 when empty).
[[nodiscard]] std::size_t partition_count(const std::vector<std::uint32_t>& assignment);

/// Minimum latency over edges whose endpoints live in different partitions
/// — the conservative lookahead bound. Time::infinity() when no edge is
/// cut (partitions never interact, windows are unbounded).
[[nodiscard]] Time min_cut_latency(const std::vector<PartitionEdge>& edges,
                                   const std::vector<std::uint32_t>& assignment);

// ---------------------------------------------------------------------------
// Cross-partition handoff staging
// ---------------------------------------------------------------------------

/// Inline payload budget for one staged handoff. Sized for net::Packet
/// (the only payload today) with headroom; the stage() template rejects
/// anything bigger at compile time.
inline constexpr std::size_t kHandoffPayloadCapacity = 96;

/// Delivery hook invoked on the *destination* partition's worker during the
/// drain phase. A plain function pointer (not InlineCallback) because the
/// payload travels in the staged entry itself, not in a closure.
/// `staged_at` is the source partition's clock when the handoff was staged;
/// `origin`/`rank` are the sending node's label and the insertion rank
/// drawn from the *source* scheduler's origin counter at stage time.
/// Implementations should keep all three in the key they arm on the
/// destination (a link's wire puts the packet into its ring at that key and
/// arms its persistent slot for the ring's head), so same-timestamp ties
/// resolve exactly as a single-scheduler run would — the (birth, origin,
/// rank) tie-break key is intrinsic to the sender, not to insertion order.
using HandoffDeliverFn = void (*)(void* endpoint, const std::byte* payload, Time deliver_at,
                                  Time staged_at, std::uint32_t origin, std::uint64_t rank);

/// One staged cross-partition event, written by the source partition during
/// a window and consumed by the destination during the drain phase.
/// (deliver_at, staged_at, origin, rank) is the scheduler key the delivery
/// is armed with: it is intrinsic to the sender, so the destination's pop
/// order does not depend on the order in which handoffs are drained.
struct StagedHandoff {
  Time deliver_at{};
  Time staged_at{};
  std::uint32_t origin{0};
  std::uint64_t rank{0};
  HandoffDeliverFn deliver{nullptr};
  void* endpoint{nullptr};
  alignas(std::max_align_t) std::byte payload[kHandoffPayloadCapacity];
};

/// Staging queue for one ordered (source partition -> destination
/// partition) direction. Not a concurrent queue: the engine's barrier
/// discipline guarantees the source thread writes only during the window
/// phase and the destination thread reads only during the drain phase, so
/// plain vectors suffice and the steady state (capacity reached) is
/// allocation-free. Padded to a cache line so neighboring channels written
/// by different threads don't false-share.
class alignas(64) HandoffChannel {
 public:
  HandoffChannel() { staged_.reserve(kInitialCapacity); }

  HandoffChannel(const HandoffChannel&) = delete;
  HandoffChannel& operator=(const HandoffChannel&) = delete;

  /// Stage `payload` for delivery at `deliver_at`; called by the source
  /// partition's thread while its window executes, with `staged_at` its
  /// current clock (staged_at <= deliver_at) and (`origin`, `rank`) the
  /// sender's scheduler tie-break key drawn at stage time. `fn(endpoint,
  /// bytes, deliver_at, staged_at, origin, rank)` runs later on the
  /// destination's thread.
  template <typename T>
  void stage(Time deliver_at, Time staged_at, std::uint32_t origin, std::uint64_t rank,
             void* endpoint, HandoffDeliverFn fn, const T& payload) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "handoff payloads are relayed as raw bytes");
    static_assert(sizeof(T) <= kHandoffPayloadCapacity,
                  "handoff payload exceeds the staging budget");
    StagedHandoff& h = staged_.emplace_back();
    h.deliver_at = deliver_at;
    h.staged_at = staged_at;
    h.origin = origin;
    h.rank = rank;
    h.deliver = fn;
    h.endpoint = endpoint;
    std::memcpy(h.payload, &payload, sizeof(T));
  }

  [[nodiscard]] const std::vector<StagedHandoff>& staged() const { return staged_; }
  void clear() { staged_.clear(); }

 private:
  static constexpr std::size_t kInitialCapacity = 256;

  std::vector<StagedHandoff> staged_;
};

// ---------------------------------------------------------------------------
// Partitioned execution engine
// ---------------------------------------------------------------------------

/// Conservative-lookahead parallel executor over a set of per-partition
/// Simulations. Each round advances every partition through one *safe
/// window* [t_min, min(target, t_min + lookahead - 1ns)] where t_min is the
/// global minimum pending event time: any cross-partition influence emitted
/// inside the window arrives at least `lookahead` after it was sent, i.e.
/// strictly after the window closes, so partitions cannot affect each other
/// mid-window and may run concurrently.
///
/// Per round, with two std::barrier rendezvous:
///   1. publish: each worker records the min next-event time of the
///      partitions it owns; the barrier completion computes the window.
///   2. window:  each worker runs its partitions to the window end; cross
///      partition sends are staged into HandoffChannels, never applied.
///   3. drain:   after the second barrier, each worker hands every
///      delivery staged on the channels inbound to its partitions to its
///      endpoint (a link's wire), channel by channel, unsorted. The wire
///      keeps its packets sorted by the scheduler key each is armed with:
///      staged_at as the birth time and the staged (origin, rank) pair as
///      the intrinsic tie-break (Scheduler::arm_persistent). That key is
///      the sender's, so same-timestamp pop order matches the
///      single-scheduler run exactly whatever order the drain inserts in,
///      and runs are deterministic regardless of thread count or timing.
///
/// Worker w owns partitions {p : p % workers == w}; with threads == 1 the
/// same round structure runs inline on the calling thread with no barriers,
/// which is also the configuration the allocation-free steady-state
/// guarantee is asserted against (thread spawn allocates; the round loop
/// does not).
class PartitionedEngine {
 public:
  struct Options {
    /// Safe-window width; must be >= 1ns (or infinite when no channel will
    /// ever carry traffic). Use min_cut_latency() of the partitioning.
    Time lookahead{Time::infinity()};
    /// Worker threads; 0 = one per partition, capped by the hardware. A
    /// hardware_concurrency() report of 0 (permitted by the standard) falls
    /// back to 1.
    std::size_t threads{0};
  };

  /// `partitions[p]` must outlive the engine; each Simulation is driven
  /// exclusively by this engine once run_until() is first called.
  PartitionedEngine(std::vector<Simulation*> partitions, const Options& options);

  PartitionedEngine(const PartitionedEngine&) = delete;
  PartitionedEngine& operator=(const PartitionedEngine&) = delete;

  /// Register a staging channel for cross-partition traffic flowing
  /// src -> dst. Call during wiring, before the first run_until(). The
  /// drain visits a partition's inbound channels in registration order.
  /// Returned reference is stable.
  HandoffChannel& add_channel(std::size_t src, std::size_t dst);

  /// Advance every partition to exactly `target` (events at `target`
  /// fire, matching Scheduler::run_until). Rethrows the first exception
  /// any partition's event raised, after all workers have stopped.
  void run_until(Time target);

  [[nodiscard]] std::size_t partition_count() const { return sims_.size(); }
  [[nodiscard]] const Options& options() const { return options_; }
  /// Safe windows executed across all run_until() calls.
  [[nodiscard]] std::uint64_t windows_executed() const { return windows_; }
  /// Cross-partition deliveries actually drained and scheduled.
  [[nodiscard]] std::uint64_t handoffs_delivered() const;

 private:
  [[nodiscard]] std::size_t worker_count() const;
  [[nodiscard]] Time window_bound(Time t_min, Time target) const;
  /// Barrier-completion step: fold the published per-worker minima and
  /// either open the next window or flag completion. Runs on exactly one
  /// thread while every worker is blocked, so it writes plain fields.
  void advance_window(Time target);
  void publish_local_min(std::size_t worker, std::size_t workers);
  void run_window(std::size_t worker, std::size_t workers);
  void drain_partition(std::size_t p);
  void record_error() noexcept;
  void run_single(Time target);
  void run_threaded(Time target, std::size_t workers);

  std::vector<Simulation*> sims_;
  Options options_;
  std::deque<HandoffChannel> channels_;
  std::vector<std::vector<std::uint32_t>> inbound_;  // per partition: channel ids
  std::vector<Time> local_min_;      // per worker, written before the publish barrier
  std::vector<std::uint64_t> handoffs_;  // per partition, owner-written
  Time window_end_{Time::zero()};    // written by advance_window only
  bool done_{false};                 // likewise
  std::uint64_t windows_{0};
  std::atomic<bool> error_flag_{false};
  std::exception_ptr first_error_{nullptr};
};

}  // namespace rss::sim
