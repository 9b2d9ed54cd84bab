#include "net/link.hpp"

#include <optional>
#include <stdexcept>

#include "net/device.hpp"

namespace rss::net {

PointToPointLink::PointToPointLink(sim::Simulation& simulation, sim::Time propagation_delay)
    : PointToPointLink(simulation, simulation, propagation_delay) {}

PointToPointLink::PointToPointLink(sim::Simulation& sim_a, sim::Simulation& sim_b,
                                   sim::Time propagation_delay)
    : sim_{sim_a},
      delay_{propagation_delay},
      to_a_{sim_a, propagation_delay},
      to_b_{sim_b, propagation_delay} {
  if (propagation_delay.is_negative())
    throw std::invalid_argument("PointToPointLink: negative delay");
}

void PointToPointLink::attach(NetDevice& a, NetDevice& b) {
  if (end_a_ || end_b_) throw std::logic_error("PointToPointLink: already attached");
  end_a_ = &a;
  end_b_ = &b;
  to_a_.connect(a);
  to_b_.connect(b);
  a.attach_link(this);
  b.attach_link(this);
}

void PointToPointLink::set_loss_rate(double p, sim::Rng rng) {
  if (p < 0.0 || p >= 1.0) throw std::invalid_argument("PointToPointLink: loss rate in [0,1)");
  schedule_departures();
  loss_rate_ = p;
  loss_rng_ = rng;
}

void PointToPointLink::set_jitter(sim::Time max_jitter, sim::Rng rng) {
  if (max_jitter.is_negative())
    throw std::invalid_argument("PointToPointLink: negative jitter");
  schedule_departures();
  max_jitter_ = max_jitter;
  jitter_rng_ = rng;
}

void PointToPointLink::schedule_departures() {
  // Departures already due were transmitted under the old settings.
  if (end_a_ != nullptr) end_a_->schedule_departures();
  if (end_b_ != nullptr) end_b_->schedule_departures();
}

PointToPointLink::Wire& PointToPointLink::wire_from(const NetDevice& sender) {
  if (!end_a_ || !end_b_) throw std::logic_error("PointToPointLink: not attached");
  if (&sender == end_a_) return to_b_;
  if (&sender == end_b_) return to_a_;
  throw std::logic_error("PointToPointLink: transmit from non-endpoint");
}

void PointToPointLink::transmit_from(const NetDevice& sender, const Packet& p) {
  Wire& wire = wire_from(sender);
  if (loss_rate_ > 0.0 && loss_rng_.next_bool(loss_rate_)) {
    ++lost_;
    return;
  }
  sim::Time delay = delay_;
  if (max_jitter_ > sim::Time::zero()) {
    delay += max_jitter_ * jitter_rng_.next_double();
  }
  // Ranked by the sending device's origin so same-timestamp deliveries
  // order intrinsically (node, per-node rank) — the key a CrossPartitionLink
  // carries across partitions; both link kinds must draw from the same
  // per-origin counters for sequential/partitioned pop-order parity.
  const std::uint32_t origin = sender.event_origin();
  const sim::Time now = sim_.now();
  wire.push(p, now + delay, now, origin, sim_.scheduler().draw_rank(origin));
}

void PointToPointLink::depart(const NetDevice& sender, const Packet& p, sim::Time done) {
  const std::uint32_t origin = sender.event_origin();
  wire_from(sender).push(p, done + delay_, done, origin, sim_.scheduler().draw_rank(origin));
}

void PointToPointLink::track(NetDevice& sender, bool lazy) {
  Wire& wire = wire_from(sender);
  if (lazy && (loss_rate_ > 0.0 || max_jitter_ > sim::Time::zero() ||
               &wire.simulation() != &sender.simulation()))
    throw std::logic_error(
        "PointToPointLink: lazy departures need a lossless, jitter-free link within one "
        "partition");
  wire.follow(lazy ? &sender : nullptr);
}

void PointToPointLink::expect(const NetDevice& sender) { wire_from(sender).expect(); }

PointToPointLink::Wire::Wire(sim::Simulation& simulation, sim::Time delay)
    : sim_{&simulation},
      delay_{delay},
      slot_{simulation.scheduler().add_persistent(&Wire::fire, this)} {}

void PointToPointLink::Wire::push(const Packet& p, sim::Time at, sim::Time birth,
                                  std::uint32_t origin, std::uint64_t rank) {
  // Insert from the back. Without jitter every packet lands there; jitter
  // (or an exact-time tie broken by the origin hash) can carry it forward.
  const InFlight fresh{sim::EventEntry{at, birth, rank, 0, origin}, p};
  ring_.push_back(fresh);
  std::size_t pos = ring_.size() - 1;
  while (pos > 0 && sim::event_entry_before(fresh.key, ring_[pos - 1].key)) {
    ring_[pos] = ring_[pos - 1];
    --pos;
  }
  ring_[pos] = fresh;
  // A new head overtook the armed key (if any), which goes back to waiting
  // its turn in the ring.
  if (pos == 0 && !firing_) arm_next();
}

void PointToPointLink::Wire::follow(NetDevice* from) {
  from_ = from;
  expect();
}

void PointToPointLink::Wire::expect() {
  if (ring_.empty()) arm_next();
}

void PointToPointLink::Wire::arm_next() {
  sim::Scheduler& scheduler = sim_->scheduler();
  if (!ring_.empty()) {
    const sim::EventEntry& key = ring_.front().key;
    scheduler.arm_persistent(slot_, key.origin, key.seq, key.birth, key.at);
  } else if (const std::optional<sim::Time> done =
                 from_ != nullptr ? from_->lazy_departure() : std::nullopt) {
    const std::uint32_t origin = from_->event_origin();
    scheduler.arm_persistent(slot_, origin, scheduler.peek_rank(origin), *done, *done + delay_);
  } else {
    scheduler.disarm_persistent(slot_);
  }
}

void PointToPointLink::Wire::fire(void* wire) { static_cast<Wire*>(wire)->deliver(); }

void PointToPointLink::Wire::deliver() {
  if (from_ != nullptr) {
    firing_ = true;
    from_->catch_up();
    firing_ = false;
  }
  // Copy out before popping: deliver_up can cascade into a transmit onto
  // this wire, which may reuse (or, growing, reallocate) the head's cell.
  const Packet arrived = ring_.front().packet;
  ring_.pop_front();
  ++delivered_;
  arm_next();
  to_->deliver_up(arrived);
}

}  // namespace rss::net
