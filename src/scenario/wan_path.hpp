#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/config.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "scenario/builder.hpp"
#include "scenario/topology.hpp"
#include "sim/simulation.hpp"
#include "tcp/congestion_control.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"
#include "web100/polling_agent.hpp"

namespace rss::scenario {

/// The paper's testbed in a box (§4): a host whose 100 Mbps NIC (with a
/// 100-packet interface queue) is the path bottleneck, talking across a
/// 60 ms-RTT WAN to a fast receiver. One bulk TCP flow, Web100-style
/// polling of its MIB.
///
///     sender ── NIC(100 Mbps, IFQ 100) ══ 30 ms ══ NIC(1 Gbps) ── receiver
///
/// The sender NIC is where send-stalls happen; everything the paper
/// measures is observable through `sender().mib()` and `agent()`.
///
/// A preset over ScenarioBuilder: make_spec() emits the declarative
/// TopologySpec and this class is a thin named-accessor wrapper around the
/// built Scenario.
class WanPath {
 public:
  struct Config {
    core::CanonicalPath path{};
    std::uint64_t seed{1};
    /// Full execution policy (backend, partitions, thread budget); see
    /// scenario::ExecutionPolicy.
    ExecutionPolicy execution{};
    std::uint32_t flow_id{1};
    std::size_t receiver_ifq_packets{1000};
    sim::Time web100_poll_period{sim::Time::milliseconds(100)};
    bool enable_web100{true};
    tcp::TcpReceiver::Options receiver{};  ///< flow/peer ids are overwritten
    tcp::TcpSender::Options sender{};      ///< flow/dst/mss are overwritten
  };

  /// The declarative description of this topology; customize it and build
  /// with ScenarioBuilder directly for variations the Config doesn't cover.
  [[nodiscard]] static TopologySpec make_spec(const Config& config);

  WanPath(Config config, const CcFactory& cc_factory);

  /// Start an unbounded bulk transfer at `start` and run until `until`.
  void run_bulk_transfer(sim::Time start, sim::Time until);

  [[nodiscard]] sim::Simulation& simulation() { return scenario_->simulation(); }
  [[nodiscard]] Scenario& scenario() { return *scenario_; }
  [[nodiscard]] tcp::TcpSender& sender() { return scenario_->sender(0); }
  [[nodiscard]] const tcp::TcpSender& sender() const { return scenario_->sender(0); }
  [[nodiscard]] tcp::TcpReceiver& receiver() { return scenario_->receiver(0); }
  [[nodiscard]] net::Node& sender_node() { return scenario_->node("sender"); }
  [[nodiscard]] net::Node& receiver_node() { return scenario_->node("receiver"); }
  /// The bottleneck NIC whose IFQ the paper's controller watches.
  [[nodiscard]] net::NetDevice& nic() { return scenario_->device("sender", "receiver"); }
  [[nodiscard]] const net::NetDevice& nic() const {
    return scenario_->device("sender", "receiver");
  }
  [[nodiscard]] web100::PollingAgent* agent() { return scenario_->agent(0); }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Throughput of the measured flow over [t0, t1] in Mbit/s, from
  /// cumulatively acknowledged bytes.
  [[nodiscard]] double goodput_mbps(sim::Time t0, sim::Time t1) const {
    return scenario_->sender(0).goodput_mbps(t0, t1);
  }

 private:
  Config cfg_;
  std::unique_ptr<Scenario> scenario_;
};

}  // namespace rss::scenario
