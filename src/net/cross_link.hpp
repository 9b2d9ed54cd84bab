#pragma once

#include <cstddef>
#include <cstdint>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/partition.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace rss::net {

/// A point-to-point link whose endpoints live in different partitions of a
/// PartitionedEngine. Instead of pushing the packet onto the destination's
/// wire directly (that wire and its scheduler belong to another thread
/// mid-window), transmit_from stages the packet into the engine's
/// HandoffChannel for this direction; the engine's drain phase then pushes
/// it onto the wire with the key drawn at transmit, so both link kinds
/// share one delivery path. Conservative lookahead guarantees the delivery
/// time is beyond the current window, so staging never reorders anything.
///
/// Devices and experiments see the ordinary PointToPointLink surface.
/// Loss and jitter are unsupported across partitions (both draw from an
/// RNG at transmit time, which would make the draw order depend on thread
/// scheduling); set_loss_rate/set_jitter throw. Put lossy links inside a
/// partition.
class CrossPartitionLink final : public PointToPointLink {
 public:
  /// `sim_a`/`sim_b` are the partitions of the two endpoints passed to
  /// attach() (in the same order); `a_to_b`/`b_to_a` the engine channels
  /// for the two directions. `delay` must be >= 1ns — it is (part of) the
  /// lookahead bound, and ScenarioBuilder validates the cut accordingly.
  CrossPartitionLink(sim::Simulation& sim_a, sim::Simulation& sim_b, sim::Time delay,
                     sim::HandoffChannel& a_to_b, sim::HandoffChannel& b_to_a);

  void transmit_from(const NetDevice& sender, const Packet& p) override;
  [[noreturn]] void set_loss_rate(double p, sim::Rng rng) override;
  [[noreturn]] void set_jitter(sim::Time max_jitter, sim::Rng rng) override;

 private:
  /// sim::HandoffDeliverFn invoked by the engine's drain phase on the
  /// destination partition's thread; `endpoint` is the destination's Wire.
  static void deliver_staged(void* endpoint, const std::byte* payload, sim::Time deliver_at,
                             sim::Time staged_at, std::uint32_t origin, std::uint64_t rank);

  sim::Simulation& sim_b_;
  sim::HandoffChannel& a_to_b_;
  sim::HandoffChannel& b_to_a_;
};

}  // namespace rss::net
