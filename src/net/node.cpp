#include "net/node.hpp"

#include <stdexcept>
#include <utility>

namespace rss::net {

Node::Node(sim::Simulation& simulation, std::uint32_t id, std::string name)
    : sim_{simulation}, id_{id}, name_{std::move(name)} {}

NetDevice& Node::add_device(DataRate rate, std::unique_ptr<PacketQueue> ifq,
                            std::string device_name) {
  // A second device shares the node's rank stream, so no device may keep
  // applying its departures lazily.
  for (const auto& dev : devices_) dev->schedule_departures();
  if (device_name.empty()) device_name = name_ + "/eth" + std::to_string(devices_.size());
  auto dev = std::make_unique<NetDevice>(sim_, rate, std::move(ifq), std::move(device_name));
  dev->set_receive_callback(
      [this](const Packet& p, NetDevice& from) { on_receive(p, from); });
  devices_.push_back(std::move(dev));
  return *devices_.back();
}

void Node::set_route(std::uint32_t dst_node, std::size_t device_index) {
  if (device_index >= devices_.size()) throw std::out_of_range("Node::set_route: bad device");
  routes_[dst_node] = device_index;
}

void Node::set_default_route(std::size_t device_index) {
  if (device_index >= devices_.size())
    throw std::out_of_range("Node::set_default_route: bad device");
  default_route_ = device_index;
}

std::optional<std::size_t> Node::route(std::uint32_t dst_node) const {
  const auto it = routes_.find(dst_node);
  if (it == routes_.end()) return std::nullopt;
  return it->second;
}

void Node::register_flow_handler(std::uint32_t flow_id, FlowHandler handler) {
  if (!handler) throw std::invalid_argument("Node::register_flow_handler: null handler");
  if (!flow_handlers_.emplace(flow_id, std::move(handler)).second)
    throw std::logic_error("Node::register_flow_handler: duplicate flow handler");
}

NetDevice* Node::egress_for(std::uint32_t dst_node) {
  if (auto it = routes_.find(dst_node); it != routes_.end()) return devices_[it->second].get();
  if (default_route_) return devices_[*default_route_].get();
  return nullptr;
}

Node::SendResult Node::send(Packet p) {
  p.src_node = id_;
  NetDevice* egress = egress_for(p.dst_node);
  if (!egress) return SendResult::kNoRoute;
  return egress->send(p) == NetDevice::TxResult::kQueued ? SendResult::kSent
                                                         : SendResult::kStalled;
}

void Node::on_receive(const Packet& p, NetDevice& from) {
  if (p.dst_node == id_) {
    ++delivered_;
    if (auto it = flow_handlers_.find(p.flow_id); it != flow_handlers_.end()) {
      it->second(p);
    }
    return;
  }
  // Transit traffic: forward. Egress-queue overflow here is a network drop
  // (the router does not tell the sender), so the result is discarded after
  // counting.
  NetDevice* egress = egress_for(p.dst_node);
  if (!egress || egress == &from) {
    ++forward_drops_;
    return;
  }
  ++forwarded_;
  if (egress->send(p) == NetDevice::TxResult::kRejected) ++forward_drops_;
}

}  // namespace rss::net
