#include "net/device.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "net/link.hpp"

namespace rss::net {

NetDevice::NetDevice(sim::Simulation& simulation, DataRate rate,
                     std::unique_ptr<PacketQueue> ifq, std::string name)
    : sim_{simulation}, rate_{rate}, ifq_{std::move(ifq)}, name_{std::move(name)} {
  if (!ifq_) throw std::invalid_argument("NetDevice: null IFQ");
  if (rate_.bits_per_second() == 0) throw std::invalid_argument("NetDevice: zero rate");
  slot_ = sim_.scheduler().add_persistent(&NetDevice::fire, this);
}

NetDevice::TxResult NetDevice::send(const Packet& p) {
  catch_up();
  if (!ifq_->enqueue(p)) {
    ++stats_.send_stalls;
    if (stall_cb_) stall_cb_(p);
    return TxResult::kRejected;
  }
  try_start_tx();
  return TxResult::kQueued;
}

void NetDevice::try_start_tx() {
  if (busy_ || ifq_->empty()) return;
  busy_ = true;
  serializing_ = *ifq_->dequeue();
  sim::Time slot = rate_.transmission_time(serializing_.size_bytes());
  if (lazy_) {
    // No event: catch_up() applies the departures.
    start_ = sim_.now();
    done_ = start_ + slot;
    link_->expect(*this);
    return;
  }
  // Under a fluid share the packet gets the residual rate (1 − share) as it
  // stands now; the coupling may change the share before the next packet.
  if (fluid_share_ > 0.0) {
    const double stretched =
        std::ceil(static_cast<double>(slot.nanoseconds_count()) / (1.0 - fluid_share_));
    slot = sim::Time::nanoseconds(static_cast<std::int64_t>(stretched));
  }
  sim::Scheduler& scheduler = sim_.scheduler();
  scheduler.arm_persistent(slot_, 0, scheduler.draw_rank(0), sim_.now(), sim_.now() + slot);
}

void NetDevice::complete_tx() {
  const Packet p = serializing_;
  ++stats_.tx_packets;
  stats_.tx_bytes += p.size_bytes();
  busy_ = false;
  if (link_) link_->transmit_from(*this, p);
  try_start_tx();
}

void NetDevice::apply_departures() {
  const sim::Scheduler& scheduler = sim_.scheduler();
  while (busy_ && scheduler.reached(done_, start_)) {
    const Packet p = serializing_;
    const sim::Time done = done_;
    ++stats_.tx_packets;
    stats_.tx_bytes += p.size_bytes();
    // The next packet starts at `done`, as try_start_tx() would take it.
    busy_ = !ifq_->empty();
    if (busy_) {
      serializing_ = *ifq_->dequeue();
      start_ = done;
      done_ = done + rate_.transmission_time(serializing_.size_bytes());
    }
    link_->depart(*this, p, done);
  }
}

void NetDevice::depart_lazily() {
  if (lazy_) return;
  if (busy_ || link_ == nullptr || event_origin_ == 0 || fluid_share_ > 0.0)
    throw std::logic_error("NetDevice: " + name_ +
                           " cannot apply departures lazily (busy, unattached, untagged or "
                           "fluid-shared)");
  link_->track(*this, true);
  lazy_ = true;
}

void NetDevice::schedule_departures() {
  if (!lazy_) return;
  apply_departures();
  lazy_ = false;
  link_->track(*this, false);
  if (!busy_) return;
  // The packet in service completes at the key its scheduled completion
  // would have: (done, start) on the default stream.
  sim::Scheduler& scheduler = sim_.scheduler();
  scheduler.arm_persistent(slot_, 0, scheduler.draw_rank(0), start_, done_);
}

void NetDevice::set_fluid_share(double share) {
  schedule_departures();
  // Clamp below 1 so the stretched serialization slot stays finite even
  // when the fluid aggregate momentarily claims the whole line.
  fluid_share_ = std::clamp(share, 0.0, 0.98);
}

void NetDevice::deliver_up(const Packet& p) {
  ++stats_.rx_packets;
  stats_.rx_bytes += p.size_bytes();
  if (rx_cb_) rx_cb_(p, *this);
}

}  // namespace rss::net
