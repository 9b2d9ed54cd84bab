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
  if (busy_) return;
  // Back-to-back equal-size packets (line-rate bursts: MSS data segments
  // one way, 40-byte ACKs the other) serialize one slot apart, so the whole
  // run is armed as a single batched event train — one queue entry and one
  // callback instead of one heap push per packet. Packets still leave the
  // IFQ one at a time at their serialization start, so queue occupancy (the
  // PID process variable and RED's input) is identical to the chained form.
  // Under a fluid share the slot length depends on the share at arming
  // time, which the coupling may change between any two completions — so
  // trains are disabled (run of one) and every slot is stretched to the
  // residual rate (1 − share).
  const std::size_t run = ifq_->equal_size_run(fluid_share_ > 0.0 ? 1 : kMaxTxTrain);
  if (run == 0) return;
  busy_ = true;
  serializing_ = *ifq_->dequeue();
  train_left_ = run;
  sim::Time slot = rate_.transmission_time(serializing_.size_bytes());
  if (lazy_) {
    // No event: catch_up() applies the departures, and train_left_ still
    // counts the train down for schedule_departures().
    start_ = sim_.now();
    done_ = start_ + slot;
    link_->expect(*this);
    return;
  }
  if (fluid_share_ > 0.0) {
    const double stretched =
        std::ceil(static_cast<double>(slot.nanoseconds_count()) / (1.0 - fluid_share_));
    slot = sim::Time::nanoseconds(static_cast<std::int64_t>(stretched));
  }
  const auto fire = [this] { complete_tx(); };
  static_assert(sizeof(fire) <= sim::InlineCallback::kCapacity,
                "serialization callback must stay inline on the scheduler hot path");
  sim_.train(sim_.now() + slot, slot, run, fire);
}

void NetDevice::complete_tx() {
  const Packet p = serializing_;
  ++stats_.tx_packets;
  stats_.tx_bytes += p.size_bytes();
  --train_left_;
  if (train_left_ > 0) {
    // Train continues: the next equal-size packet starts serializing now.
    // The head run was counted when the train was armed and nothing else
    // dequeues, so this packet is guaranteed present and same-sized.
    serializing_ = *ifq_->dequeue();
    if (link_) link_->transmit_from(*this, p);
    return;
  }
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
    // The train's next packet, else the next train's first, as
    // complete_tx() and try_start_tx() would take it at `done`.
    if (--train_left_ == 0) train_left_ = ifq_->equal_size_run(kMaxTxTrain);
    if (train_left_ > 0) {
      serializing_ = *ifq_->dequeue();
      start_ = done;
      done_ = done + rate_.transmission_time(serializing_.size_bytes());
    } else {
      busy_ = false;
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
  // The packet in service completes at the key its train firing would
  // have had: (done, start) on the default stream.
  sim::Scheduler& scheduler = sim_.scheduler();
  scheduler.schedule_at_imported(0, scheduler.draw_rank(0), start_, done_,
                                 [this] { resume_train(); });
}

void NetDevice::resume_train() {
  // The rest of the train follows one unstretched slot apart, as the train
  // armed before any fluid share would have fired it.
  const std::uint64_t rest = train_left_ - 1;
  complete_tx();
  if (rest == 0) return;
  const sim::Time slot = rate_.transmission_time(serializing_.size_bytes());
  sim_.train(sim_.now() + slot, slot, rest, [this] { complete_tx(); });
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
