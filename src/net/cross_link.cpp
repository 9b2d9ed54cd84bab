#include "net/cross_link.hpp"

#include <cstring>
#include <stdexcept>

#include "net/device.hpp"

namespace rss::net {

CrossPartitionLink::CrossPartitionLink(sim::Simulation& sim_a, sim::Simulation& sim_b,
                                       sim::Time delay, sim::HandoffChannel& a_to_b,
                                       sim::HandoffChannel& b_to_a)
    : PointToPointLink(sim_a, sim_b, delay), sim_b_{sim_b}, a_to_b_{a_to_b}, b_to_a_{b_to_a} {
  if (delay < sim::Time::nanoseconds(1))
    throw std::invalid_argument(
        "CrossPartitionLink: a cross-partition link needs nonzero latency (it bounds the "
        "conservative lookahead window)");
}

void CrossPartitionLink::transmit_from(const NetDevice& sender, const Packet& p) {
  Wire& wire = wire_from(sender);
  const bool from_a = &sender == end_a_;
  sim::Simulation& src = from_a ? sim_ : sim_b_;
  const sim::Time staged_at = src.now();
  const sim::Time deliver_at = staged_at + delay();
  // The tie-break rank is drawn from the *source* scheduler's counter for
  // the sending node at transmit time — exactly the rank a single shared
  // scheduler would have assigned this delivery — and travels with the
  // payload so the drain can put it on the destination's wire unchanged.
  const std::uint32_t origin = sender.event_origin();
  const std::uint64_t rank = src.scheduler().draw_rank(origin);
  sim::HandoffChannel& channel = from_a ? a_to_b_ : b_to_a_;
  channel.stage(deliver_at, staged_at, origin, rank, &wire, &deliver_staged, p);
}

void CrossPartitionLink::set_loss_rate(double, sim::Rng) {
  throw std::logic_error(
      "CrossPartitionLink: loss is unsupported across partitions (the per-packet RNG draw "
      "order would depend on thread timing); keep lossy links inside one partition");
}

void CrossPartitionLink::set_jitter(sim::Time, sim::Rng) {
  throw std::logic_error(
      "CrossPartitionLink: jitter is unsupported across partitions (it would shrink the "
      "lookahead bound and randomize the draw order); keep jittery links inside one "
      "partition");
}

void CrossPartitionLink::deliver_staged(void* endpoint, const std::byte* payload,
                                        sim::Time deliver_at, sim::Time staged_at,
                                        std::uint32_t origin, std::uint64_t rank) {
  Packet p;
  std::memcpy(&p, payload, sizeof(Packet));
  // staged_at (the source's transmit clock) becomes the birth time and the
  // staged (origin, rank) pair the intrinsic tie-break: a same-timestamp
  // race between this delivery and any other event then resolves exactly
  // as it would in a single-scheduler run, regardless of drain order.
  static_cast<Wire*>(endpoint)->push(p, deliver_at, staged_at, origin, rank);
}

}  // namespace rss::net
