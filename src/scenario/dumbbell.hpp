#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "scenario/builder.hpp"
#include "scenario/topology.hpp"
#include "sim/simulation.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"

namespace rss::scenario {

/// Classic dumbbell: N senders behind a shared bottleneck router, N
/// receivers on the far side. Used for the multi-flow friendliness
/// experiments (EXT-FAIR) and for exercising *network* (router-queue)
/// congestion as opposed to the WanPath's *host* (IFQ) congestion.
///
///   S1 ─┐                              ┌─ R1
///   S2 ─┼── L ══ bottleneck, delay ══ R ┼─ R2
///   SN ─┘                              └─ RN
///
/// Per-flow congestion control is chosen by a factory taking the flow
/// index, so mixed-algorithm populations (e.g. one RSS flow among Renos)
/// are a one-liner.
///
/// A preset over ScenarioBuilder: make_spec() emits the declarative
/// TopologySpec (EXT-FAIR builds on it directly) and this class is a thin
/// named-accessor wrapper around the built Scenario.
class Dumbbell {
 public:
  struct Config {
    std::size_t flows{2};
    std::uint64_t seed{1};
    /// Full execution policy (backend, partitions, thread budget); see
    /// scenario::ExecutionPolicy.
    ExecutionPolicy execution{};
    net::DataRate access_rate{net::DataRate::gbps(1)};
    net::DataRate bottleneck_rate{net::DataRate::mbps(100)};
    sim::Time access_delay{sim::Time::milliseconds(1)};
    sim::Time bottleneck_delay{sim::Time::milliseconds(28)};  ///< ~60 ms RTT total
    std::size_t sender_ifq_packets{100};      ///< per-host NIC queue
    std::size_t router_queue_packets{100};    ///< shared bottleneck queue
    std::uint32_t mss{1460};
    tcp::TcpSender::Options sender{};         ///< ids/mss overwritten per flow
    tcp::TcpReceiver::Options receiver{};     ///< ids overwritten per flow
  };

  /// The declarative description of this topology; customize it and build
  /// with ScenarioBuilder directly for variations the Config doesn't cover
  /// (staggered spec-declared starts, per-flow options, extra links).
  [[nodiscard]] static TopologySpec make_spec(const Config& config);

  Dumbbell(Config config, const FlowCcFactory& cc_factory);

  /// Start flow `i`'s unbounded bulk transfer at `start`.
  void start_flow(std::size_t i, sim::Time start) { scenario_->start_flow(i, start); }

  [[nodiscard]] sim::Simulation& simulation() { return scenario_->simulation(); }
  [[nodiscard]] Scenario& scenario() { return *scenario_; }
  [[nodiscard]] std::size_t flow_count() const { return scenario_->flow_count(); }
  [[nodiscard]] tcp::TcpSender& sender(std::size_t i) { return scenario_->sender(i); }
  [[nodiscard]] tcp::TcpReceiver& receiver(std::size_t i) { return scenario_->receiver(i); }
  [[nodiscard]] net::Node& left_router() { return scenario_->node("routerL"); }
  [[nodiscard]] net::Node& right_router() { return scenario_->node("routerR"); }
  /// The shared bottleneck egress device on the left router.
  [[nodiscard]] net::NetDevice& bottleneck() {
    return scenario_->device("routerL", "routerR");
  }

  /// Per-flow goodput over [t0, t1] (Mbit/s).
  [[nodiscard]] std::vector<double> goodputs_mbps(sim::Time t0, sim::Time t1) const {
    return scenario_->goodputs_mbps(t0, t1);
  }

 private:
  Config cfg_;
  std::unique_ptr<Scenario> scenario_;
};

}  // namespace rss::scenario
