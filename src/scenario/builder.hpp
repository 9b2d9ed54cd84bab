#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/fluid.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "scenario/topology.hpp"
#include "sim/partition.hpp"
#include "sim/simulation.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"
#include "web100/polling_agent.hpp"

namespace rss::scenario {

/// A built topology: the simulation plus every node, link, device and flow
/// endpoint the spec described, with lookup by the spec's names. Returned
/// by ScenarioBuilder::build; non-copyable and non-movable (everything
/// holds a Simulation&), so it travels as a unique_ptr.
class Scenario {
 public:
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Partition 0's simulation (the only one for a single-partition build).
  /// Partitioned scenarios must be driven through Scenario::run_until —
  /// running one partition's scheduler directly would outrun the safe
  /// window.
  [[nodiscard]] sim::Simulation& simulation() { return *sims_.front(); }
  [[nodiscard]] const TopologySpec& spec() const { return spec_; }
  [[nodiscard]] const RouteTable& routes() const { return routes_; }

  // --- partitioned execution ---
  [[nodiscard]] std::size_t partition_count() const { return sims_.size(); }
  /// Partition that `name`'s node (and all its devices) executes on.
  [[nodiscard]] std::uint32_t partition_of(std::string_view name) const;
  /// The engine driving a partitioned build, or nullptr for the classic
  /// single-scheduler run (partition stats live here).
  [[nodiscard]] const sim::PartitionedEngine* engine() const { return engine_.get(); }
  /// Conservative lookahead of the partitioning (infinite when single
  /// partition or no cut edges).
  [[nodiscard]] sim::Time lookahead() const { return lookahead_; }
  /// Total events executed across every partition's scheduler (equals the
  /// single scheduler's count for an unpartitioned build). The bench smoke
  /// legs report throughput as events / wall-second from this.
  [[nodiscard]] std::uint64_t events_executed() const;

  // --- flows (indices follow spec.flows order) ---
  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }
  /// True when flow i is a fluid aggregate (no TCP endpoints).
  [[nodiscard]] bool is_fluid(std::size_t i) const {
    return flows_.at(i).fluid_source != nullptr;
  }
  /// TCP sender of flow i; throws std::logic_error for a fluid flow.
  [[nodiscard]] tcp::TcpSender& sender(std::size_t i) { return *checked_sender(i); }
  [[nodiscard]] const tcp::TcpSender& sender(std::size_t i) const {
    return *const_cast<Scenario*>(this)->checked_sender(i);
  }
  [[nodiscard]] tcp::TcpReceiver& receiver(std::size_t i) { return *flows_.at(i).receiver; }
  /// Fluid endpoints of flow i; throw std::logic_error for a packet flow.
  [[nodiscard]] net::FluidSource& fluid_source(std::size_t i);
  [[nodiscard]] const net::FluidSink& fluid_sink(std::size_t i) const;
  /// Web100 agent for flow i, or nullptr when the spec didn't ask for one.
  [[nodiscard]] web100::PollingAgent* agent(std::size_t i) { return flows_.at(i).agent.get(); }

  /// Schedule flow i's unbounded bulk transfer to begin at `at` (for flows
  /// whose spec left `start` unset, or to start one again).
  void start_flow(std::size_t i, sim::Time at);

  /// Advance the whole scenario to exactly `t` — through the partitioned
  /// engine when there is one, directly otherwise.
  void run_until(sim::Time t) {
    if (engine_) {
      engine_->run_until(t);
    } else {
      sims_.front()->run_until(t);
    }
  }

  /// Per-flow goodput over [t0, t1] (Mbit/s), in flow order.
  [[nodiscard]] std::vector<double> goodputs_mbps(sim::Time t0, sim::Time t1) const;

  // --- topology lookup ---
  [[nodiscard]] net::Node& node(std::string_view name);
  /// Egress NetDevice on `node` for the direct link toward `peer`; throws
  /// std::out_of_range when the two are not directly linked. This is how
  /// experiments name a bottleneck ("routerL" toward "routerR").
  [[nodiscard]] net::NetDevice& device(std::string_view node, std::string_view peer);
  [[nodiscard]] const net::NetDevice& device(std::string_view node,
                                             std::string_view peer) const;

 private:
  friend class ScenarioBuilder;
  Scenario(TopologySpec spec, RouteTable routes);

  struct FlowRuntime {
    std::unique_ptr<tcp::TcpReceiver> receiver;
    std::unique_ptr<tcp::TcpSender> sender;
    std::unique_ptr<web100::PollingAgent> agent;
    std::unique_ptr<net::FluidSource> fluid_source;  ///< set iff model == kFluid
    std::unique_ptr<net::FluidSink> fluid_sink;
    sim::Simulation* src_sim{nullptr};  ///< partition the sender lives on
  };

  [[nodiscard]] std::size_t index_of(std::string_view name) const;
  [[nodiscard]] tcp::TcpSender* checked_sender(std::size_t i);

  TopologySpec spec_;
  RouteTable routes_;
  /// One Simulation per partition (always at least one). Everything a node
  /// owns — devices, queues, flow endpoints — holds a reference to its
  /// partition's Simulation.
  std::vector<std::unique_ptr<sim::Simulation>> sims_;
  std::vector<std::uint32_t> node_partition_;  ///< spec node index -> partition
  sim::Time lookahead_{sim::Time::infinity()};
  std::unique_ptr<sim::PartitionedEngine> engine_;  ///< null for single partition
  std::vector<std::unique_ptr<net::Node>> nodes_;
  std::vector<std::unique_ptr<net::PointToPointLink>> links_;
  std::vector<FlowRuntime> flows_;
  /// Fluid machinery, in deterministic first-touch order: one coupling per
  /// bottleneck device fluid traffic contends on, one driver per partition
  /// that hosts fluid flows.
  std::vector<std::unique_ptr<net::FluidQueueCoupling>> fluid_couplings_;
  std::vector<std::unique_ptr<net::FluidDriver>> fluid_drivers_;
  std::unordered_map<std::string, std::size_t> node_index_;
  /// (node index, peer index) -> egress device, for the named-device lookup.
  std::unordered_map<std::uint64_t, net::NetDevice*> device_by_edge_;
};

/// Builds a Scenario from a TopologySpec: validates the spec (typed
/// TopologyError on malformed input), computes static shortest-path
/// routes, wires net::Node / NetDevice / PointToPointLink /
/// tcp::TcpSender / TcpReceiver instances, installs forwarding tables,
/// attaches Web100 agents, and schedules spec-declared flow starts.
///
/// Usable either spec-first (construct with a filled TopologySpec — what
/// the presets do) or fluently:
///
///     auto scenario = ScenarioBuilder{}
///                         .node("a").node("b")
///                         .duplex_link("a", "b", net::DataRate::mbps(100),
///                                      sim::Time::milliseconds(30), 100)
///                         .flow({.src = "a", .dst = "b"})
///                         .build(make_reno_factory());
class ScenarioBuilder {
 public:
  ScenarioBuilder() = default;
  explicit ScenarioBuilder(TopologySpec spec) : spec_{std::move(spec)} {}

  ScenarioBuilder& node(std::string name);
  ScenarioBuilder& link(LinkSpec link);
  /// Symmetric convenience: same rate/IFQ on both endpoint devices.
  ScenarioBuilder& duplex_link(std::string a, std::string b, net::DataRate rate,
                               sim::Time delay, std::size_t ifq_packets);
  ScenarioBuilder& flow(FlowSpec flow);
  ScenarioBuilder& seed(std::uint64_t seed);
  /// Set the full execution policy (backend, partitions, threads).
  ScenarioBuilder& execution(ExecutionPolicy policy);

  [[nodiscard]] const TopologySpec& spec() const { return spec_; }

  /// Validate and wire. Throws TopologyError on a malformed spec (and on a
  /// null factory).
  [[nodiscard]] std::unique_ptr<Scenario> build(const FlowCcFactory& cc_factory) const;
  [[nodiscard]] std::unique_ptr<Scenario> build(const CcFactory& cc_factory) const {
    return build(uniform_cc(cc_factory));
  }

 private:
  TopologySpec spec_;
};

}  // namespace rss::scenario
