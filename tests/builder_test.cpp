#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/queue.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/dumbbell.hpp"
#include "scenario/presets.hpp"
#include "scenario/topology.hpp"
#include "scenario/wan_path.hpp"

namespace rss::scenario {
namespace {

using namespace rss::sim::literals;
using Code = TopologyError::Code;

/// The thrown TopologyError's code, or nullopt when `fn` doesn't throw it.
template <typename Fn>
std::optional<Code> error_code_of(Fn&& fn) {
  try {
    fn();
  } catch (const TopologyError& e) {
    return e.code();
  }
  return std::nullopt;
}

TopologySpec line_spec(std::size_t nodes) {
  TopologySpec spec;
  for (std::size_t i = 0; i < nodes; ++i) spec.nodes.push_back("n" + std::to_string(i));
  for (std::size_t i = 0; i + 1 < nodes; ++i) {
    LinkSpec l;
    l.a = "n" + std::to_string(i);
    l.b = "n" + std::to_string(i + 1);
    spec.links.push_back(std::move(l));
  }
  return spec;
}

// --- validation -----------------------------------------------------------

TEST(TopologyValidationTest, AcceptsWellFormedSpec) {
  TopologySpec spec = line_spec(3);
  spec.flows.push_back({.src = "n0", .dst = "n2"});
  EXPECT_NO_THROW(validate_topology(spec));
}

TEST(TopologyValidationTest, RejectsEmptyNodeName) {
  TopologySpec spec;
  spec.nodes = {"a", ""};
  EXPECT_EQ(error_code_of([&] { validate_topology(spec); }), Code::kEmptyName);
}

TEST(TopologyValidationTest, RejectsDuplicateNode) {
  TopologySpec spec;
  spec.nodes = {"a", "b", "a"};
  EXPECT_EQ(error_code_of([&] { validate_topology(spec); }), Code::kDuplicateNode);
}

TEST(TopologyValidationTest, RejectsUnknownLinkEndpoint) {
  TopologySpec spec;
  spec.nodes = {"a", "b"};
  spec.links.push_back({.a = "a", .b = "ghost"});
  EXPECT_EQ(error_code_of([&] { validate_topology(spec); }), Code::kUnknownEndpoint);
}

TEST(TopologyValidationTest, RejectsSelfLoopLink) {
  TopologySpec spec;
  spec.nodes = {"a", "b"};
  spec.links.push_back({.a = "a", .b = "a"});
  EXPECT_EQ(error_code_of([&] { validate_topology(spec); }), Code::kSelfLoop);
}

TEST(TopologyValidationTest, RejectsDuplicateLinkEitherOrientation) {
  TopologySpec spec;
  spec.nodes = {"a", "b"};
  spec.links.push_back({.a = "a", .b = "b"});
  spec.links.push_back({.a = "b", .b = "a"});
  EXPECT_EQ(error_code_of([&] { validate_topology(spec); }), Code::kDuplicateLink);
}

TEST(TopologyValidationTest, RejectsUnknownFlowEndpoint) {
  TopologySpec spec = line_spec(2);
  spec.flows.push_back({.src = "n0", .dst = "ghost"});
  EXPECT_EQ(error_code_of([&] { validate_topology(spec); }), Code::kUnknownEndpoint);
}

TEST(TopologyValidationTest, RejectsDuplicateFlowIdSharingAnEndpoint) {
  TopologySpec spec = line_spec(3);
  spec.flows.push_back({.src = "n0", .dst = "n2", .flow_id = 7});
  spec.flows.push_back({.src = "n2", .dst = "n1", .flow_id = 7});  // shares n2
  EXPECT_EQ(error_code_of([&] { validate_topology(spec); }), Code::kDuplicateFlowId);
}

TEST(TopologyValidationTest, AllowsDuplicateFlowIdOnDisjointEndpoints) {
  TopologySpec spec = line_spec(4);
  spec.flows.push_back({.src = "n0", .dst = "n1", .flow_id = 7});
  spec.flows.push_back({.src = "n2", .dst = "n3", .flow_id = 7});
  EXPECT_NO_THROW(validate_topology(spec));
}

TEST(ScenarioBuilderTest, RejectsUnroutableFlow) {
  // Two disconnected islands.
  TopologySpec spec;
  spec.nodes = {"a", "b", "c", "d"};
  spec.links.push_back({.a = "a", .b = "b"});
  spec.links.push_back({.a = "c", .b = "d"});
  spec.flows.push_back({.src = "a", .dst = "d"});
  EXPECT_EQ(
      error_code_of([&] { (void)ScenarioBuilder{spec}.build(make_reno_factory()); }),
      Code::kUnroutableFlow);
}

TEST(ScenarioBuilderTest, RejectsNullFactory) {
  EXPECT_EQ(error_code_of([&] { (void)ScenarioBuilder{line_spec(2)}.build(FlowCcFactory{}); }),
            Code::kNullCcFactory);
  // TopologyError stays catchable as std::invalid_argument for old callers.
  EXPECT_THROW((void)ScenarioBuilder{line_spec(2)}.build(CcFactory{}),
               std::invalid_argument);
}

// --- route computation ----------------------------------------------------

TEST(RouteTableTest, LineTopologyRoutesThroughEachHop) {
  const TopologySpec spec = line_spec(4);
  const RouteTable routes = compute_routes(spec);
  // n0's only device (0) reaches everything.
  for (std::size_t dst = 1; dst < 4; ++dst) EXPECT_EQ(routes.egress(0, dst), 0u);
  // n1: device 0 faces n0, device 1 faces n2.
  EXPECT_EQ(routes.egress(1, 0), 0u);
  EXPECT_EQ(routes.egress(1, 2), 1u);
  EXPECT_EQ(routes.egress(1, 3), 1u);
  EXPECT_EQ(routes.hops(0, 3), 3u);
  EXPECT_EQ(routes.hops(3, 0), 3u);
  EXPECT_EQ(routes.hops(2, 2), 0u);
}

TEST(RouteTableTest, ShortestPathWinsOverLongerOne) {
  // a-b-c chain plus a direct a-c link: a must reach c directly.
  TopologySpec spec;
  spec.nodes = {"a", "b", "c"};
  spec.links.push_back({.a = "a", .b = "b"});
  spec.links.push_back({.a = "b", .b = "c"});
  spec.links.push_back({.a = "a", .b = "c"});
  const RouteTable routes = compute_routes(spec);
  EXPECT_EQ(routes.egress(0, 2), 1u);  // a's second device, the direct a-c link
  EXPECT_EQ(routes.hops(0, 2), 1u);
}

TEST(RouteTableTest, EqualCostTieBreaksByLinkDeclarationOrder) {
  // Diamond: a-b, b-d declared before a-c, c-d. Both a->d paths are two
  // hops; the earlier-declared one (via b) must win deterministically.
  TopologySpec spec;
  spec.nodes = {"a", "b", "c", "d"};
  spec.links.push_back({.a = "a", .b = "b"});
  spec.links.push_back({.a = "b", .b = "d"});
  spec.links.push_back({.a = "a", .b = "c"});
  spec.links.push_back({.a = "c", .b = "d"});
  const RouteTable routes = compute_routes(spec);
  EXPECT_EQ(routes.egress(0, 3), 0u);  // via b (a's device 0)
  EXPECT_EQ(routes.hops(0, 3), 2u);
}

TEST(RouteTableTest, DisconnectedNodesAreUnreachable) {
  TopologySpec spec;
  spec.nodes = {"a", "b", "island"};
  spec.links.push_back({.a = "a", .b = "b"});
  const RouteTable routes = compute_routes(spec);
  EXPECT_FALSE(routes.reachable(0, 2));
  EXPECT_EQ(routes.hops(0, 2), RouteTable::kUnreachable);
}

TEST(ScenarioBuilderTest, InstallsRoutesOnNodes) {
  TopologySpec spec = line_spec(3);
  spec.flows.push_back({.src = "n0", .dst = "n2"});
  auto scenario = ScenarioBuilder{spec}.build(make_reno_factory());
  // Node ids are 1-based spec indices; n1 (id 2) must route n0 (id 1) out
  // of device 0 and n2 (id 3) out of device 1.
  EXPECT_EQ(scenario->node("n1").route(1), std::optional<std::size_t>{0});
  EXPECT_EQ(scenario->node("n1").route(3), std::optional<std::size_t>{1});
  EXPECT_EQ(scenario->node("n0").route(3), std::optional<std::size_t>{0});
}

// --- event-queue backend --------------------------------------------------

TEST(ScenarioBuilderTest, UnpinnedDenseDumbbellBuildsOnTheHeap) {
  // No execution.backend means the heap, however dense the spec (32 flows
  // was the old calendar-queue threshold).
  Dumbbell::Config cfg;
  cfg.flows = 32;
  auto scenario = ScenarioBuilder{Dumbbell::make_spec(cfg)}.build(uniform_cc(make_reno_factory()));
  EXPECT_EQ(scenario->simulation().scheduler().backend(), sim::QueueBackend::kBinaryHeap);

  cfg.execution.backend = sim::QueueBackend::kCalendarQueue;
  scenario = ScenarioBuilder{Dumbbell::make_spec(cfg)}.build(uniform_cc(make_reno_factory()));
  EXPECT_EQ(scenario->simulation().scheduler().backend(), sim::QueueBackend::kCalendarQueue);
}

// --- scenario handle ------------------------------------------------------

TEST(ScenarioTest, FluentBuilderRunsATransfer) {
  auto scenario = ScenarioBuilder{}
                      .node("a")
                      .node("b")
                      .duplex_link("a", "b", net::DataRate::mbps(100), 30_ms, 100)
                      .flow({.src = "a", .dst = "b", .start = 0_s})
                      .build(make_reno_factory());
  scenario->run_until(3_s);
  EXPECT_GT(scenario->sender(0).bytes_acked(), 0u);
  EXPECT_GT(scenario->goodputs_mbps(0_s, 3_s).at(0), 1.0);
  EXPECT_EQ(scenario->device("a", "b").rate(), net::DataRate::mbps(100));
  EXPECT_THROW((void)scenario->device("a", "ghost"), std::out_of_range);
  EXPECT_THROW((void)scenario->node("ghost"), std::out_of_range);
}

TEST(ScenarioTest, RedQueueDisciplineIsHonoured) {
  TopologySpec spec = line_spec(2);
  spec.links[0].a_dev.qdisc = QueueDiscipline::kRed;
  spec.links[0].a_dev.ifq_packets = 64;
  auto scenario = ScenarioBuilder{spec}.build(make_reno_factory());
  // RED capacity comes from ifq_packets, proving the RedQueue path ran.
  EXPECT_EQ(scenario->device("n0", "n1").ifq_capacity(), 64u);
  EXPECT_NE(dynamic_cast<const net::RedQueue*>(&scenario->device("n0", "n1").ifq()),
            nullptr);
}

// --- preset parity with the pre-redesign hand-wired classes ---------------

/// Byte-for-byte replica of the original hand-wired WanPath constructor
/// (pre-builder), kept as the parity baseline.
struct HandWiredWanPath {
  sim::Simulation sim;
  std::unique_ptr<net::Node> sender_node;
  std::unique_ptr<net::Node> receiver_node;
  net::NetDevice* nic{nullptr};
  std::unique_ptr<net::PointToPointLink> link;
  std::unique_ptr<tcp::TcpReceiver> receiver;
  std::unique_ptr<tcp::TcpSender> sender;

  explicit HandWiredWanPath(const WanPath::Config& cfg) : sim{cfg.seed} {
    sender_node = std::make_unique<net::Node>(sim, 1, "sender");
    receiver_node = std::make_unique<net::Node>(sim, 2, "receiver");
    nic = &sender_node->add_device(
        cfg.path.nic_rate, std::make_unique<net::DropTailQueue>(cfg.path.ifq_capacity_packets),
        "sender/nic");
    auto& rx_dev = receiver_node->add_device(
        cfg.path.wan_rate, std::make_unique<net::DropTailQueue>(cfg.receiver_ifq_packets),
        "receiver/nic");
    link = std::make_unique<net::PointToPointLink>(sim, cfg.path.one_way_delay);
    link->attach(*nic, rx_dev);
    sender_node->set_route(2, 0);
    receiver_node->set_route(1, 0);

    tcp::TcpReceiver::Options rx_opt = cfg.receiver;
    rx_opt.flow_id = cfg.flow_id;
    rx_opt.peer_node = 1;
    receiver = std::make_unique<tcp::TcpReceiver>(sim, *receiver_node, rx_opt);

    tcp::TcpSender::Options tx_opt = cfg.sender;
    tx_opt.flow_id = cfg.flow_id;
    tx_opt.dst_node = 2;
    tx_opt.mss = cfg.path.mss;
    sender = std::make_unique<tcp::TcpSender>(
        sim, *sender_node, *nic, std::make_unique<tcp::RenoCongestionControl>(), tx_opt);
  }
};

TEST(PresetParityTest, WanPathMatchesHandWiredOriginal) {
  WanPath::Config cfg;
  cfg.enable_web100 = false;  // the replica has no agent; polling doesn't alter dynamics

  HandWiredWanPath original{cfg};
  original.sim.at(0_s, [&] { original.sender->set_unlimited(true); });
  original.sim.run_until(5_s);

  WanPath preset{cfg, make_reno_factory()};
  preset.run_bulk_transfer(0_s, 5_s);

  EXPECT_EQ(preset.sender().bytes_acked(), original.sender->bytes_acked());
  EXPECT_EQ(preset.sender().bytes_sent(), original.sender->bytes_sent());
  EXPECT_EQ(preset.sender().mib().SendStall, original.sender->mib().SendStall);
  EXPECT_EQ(preset.nic().stats().tx_packets, original.nic->stats().tx_packets);
  EXPECT_EQ(preset.goodput_mbps(0_s, 5_s), original.sender->goodput_mbps(0_s, 5_s));
  EXPECT_GT(preset.sender().bytes_acked(), 0u);
}

/// Replica of the original hand-wired Dumbbell (pre-builder).
struct HandWiredDumbbell {
  sim::Simulation sim;
  std::vector<std::unique_ptr<net::Node>> sender_nodes;
  std::vector<std::unique_ptr<net::Node>> receiver_nodes;
  std::unique_ptr<net::Node> left_router;
  std::unique_ptr<net::Node> right_router;
  net::NetDevice* bottleneck{nullptr};
  std::vector<std::unique_ptr<net::PointToPointLink>> links;
  std::vector<std::unique_ptr<tcp::TcpSender>> senders;
  std::vector<std::unique_ptr<tcp::TcpReceiver>> receivers;

  explicit HandWiredDumbbell(const Dumbbell::Config& cfg) : sim{cfg.seed} {
    const auto sender_id = [](std::size_t i) { return 10 + static_cast<std::uint32_t>(i); };
    const auto receiver_id = [](std::size_t i) {
      return 1000 + static_cast<std::uint32_t>(i);
    };
    left_router = std::make_unique<net::Node>(sim, 1, "routerL");
    right_router = std::make_unique<net::Node>(sim, 2, "routerR");
    auto& l_bottleneck = left_router->add_device(
        cfg.bottleneck_rate, std::make_unique<net::DropTailQueue>(cfg.router_queue_packets),
        "routerL/bottleneck");
    auto& r_bottleneck = right_router->add_device(
        cfg.bottleneck_rate, std::make_unique<net::DropTailQueue>(cfg.router_queue_packets),
        "routerR/bottleneck");
    bottleneck = &l_bottleneck;
    links.push_back(std::make_unique<net::PointToPointLink>(sim, cfg.bottleneck_delay));
    links.back()->attach(l_bottleneck, r_bottleneck);

    for (std::size_t i = 0; i < cfg.flows; ++i) {
      auto snode =
          std::make_unique<net::Node>(sim, sender_id(i), "sender" + std::to_string(i));
      auto rnode =
          std::make_unique<net::Node>(sim, receiver_id(i), "receiver" + std::to_string(i));
      auto& s_dev = snode->add_device(
          cfg.access_rate, std::make_unique<net::DropTailQueue>(cfg.sender_ifq_packets));
      auto& l_dev = left_router->add_device(cfg.access_rate,
                                            std::make_unique<net::DropTailQueue>(1000));
      links.push_back(std::make_unique<net::PointToPointLink>(sim, cfg.access_delay));
      links.back()->attach(s_dev, l_dev);
      auto& r_dev = right_router->add_device(cfg.access_rate,
                                             std::make_unique<net::DropTailQueue>(1000));
      auto& d_dev =
          rnode->add_device(cfg.access_rate, std::make_unique<net::DropTailQueue>(1000));
      links.push_back(std::make_unique<net::PointToPointLink>(sim, cfg.access_delay));
      links.back()->attach(r_dev, d_dev);

      const std::size_t l_access_index = left_router->device_count() - 1;
      const std::size_t r_access_index = right_router->device_count() - 1;
      snode->set_default_route(0);
      rnode->set_default_route(0);
      left_router->set_route(receiver_id(i), 0);
      left_router->set_route(sender_id(i), l_access_index);
      right_router->set_route(receiver_id(i), r_access_index);
      right_router->set_route(sender_id(i), 0);

      const auto flow_id = static_cast<std::uint32_t>(i + 1);
      tcp::TcpReceiver::Options rx_opt = cfg.receiver;
      rx_opt.flow_id = flow_id;
      rx_opt.peer_node = sender_id(i);
      receivers.push_back(std::make_unique<tcp::TcpReceiver>(sim, *rnode, rx_opt));
      tcp::TcpSender::Options tx_opt = cfg.sender;
      tx_opt.flow_id = flow_id;
      tx_opt.dst_node = receiver_id(i);
      tx_opt.mss = cfg.mss;
      senders.push_back(std::make_unique<tcp::TcpSender>(
          sim, *snode, s_dev, std::make_unique<tcp::RenoCongestionControl>(), tx_opt));
      sender_nodes.push_back(std::move(snode));
      receiver_nodes.push_back(std::move(rnode));
    }
  }
};

TEST(PresetParityTest, DumbbellMatchesHandWiredOriginal) {
  Dumbbell::Config cfg;
  cfg.flows = 3;
  cfg.router_queue_packets = 50;  // force router-queue contention too

  HandWiredDumbbell original{cfg};
  for (std::size_t i = 0; i < cfg.flows; ++i) {
    tcp::TcpSender& s = *original.senders[i];
    original.sim.at(sim::Time::milliseconds(static_cast<std::int64_t>(100 * i)),
                    [&s] { s.set_unlimited(true); });
  }
  original.sim.run_until(10_s);

  Dumbbell preset{cfg, uniform_cc(make_reno_factory())};
  for (std::size_t i = 0; i < cfg.flows; ++i)
    preset.start_flow(i, sim::Time::milliseconds(static_cast<std::int64_t>(100 * i)));
  preset.simulation().run_until(10_s);

  for (std::size_t i = 0; i < cfg.flows; ++i) {
    EXPECT_EQ(preset.sender(i).bytes_acked(), original.senders[i]->bytes_acked())
        << "flow " << i;
    EXPECT_EQ(preset.sender(i).mib().SendStall, original.senders[i]->mib().SendStall)
        << "flow " << i;
    EXPECT_EQ(preset.sender(i).mib().FastRetran, original.senders[i]->mib().FastRetran)
        << "flow " << i;
    EXPECT_GT(preset.sender(i).bytes_acked(), 0u);
  }
  EXPECT_EQ(preset.bottleneck().ifq().stats().dropped,
            original.bottleneck->ifq().stats().dropped);
  EXPECT_EQ(preset.goodputs_mbps(0_s, 10_s),
            [&] {
              std::vector<double> g;
              for (const auto& s : original.senders) g.push_back(s->goodput_mbps(0_s, 10_s));
              return g;
            }());
}

// --- new presets ----------------------------------------------------------

TEST(ParkingLotTest, CrossTrafficLoadsEveryHop) {
  ParkingLot::Config cfg;
  cfg.hops = 3;
  cfg.hop_delays = {2_ms, 8_ms, 20_ms};  // heterogeneous RTTs
  ParkingLot lot{cfg, uniform_cc(make_reno_factory())};
  EXPECT_EQ(lot.flow_count(), 4u);  // 1 end-to-end + 3 cross
  lot.start_all(0_s);
  lot.simulation().run_until(8_s);

  const auto goodputs = lot.goodputs_mbps(0_s, 8_s);
  for (std::size_t i = 0; i < goodputs.size(); ++i)
    EXPECT_GT(goodputs[i], 1.0) << "flow " << i;
  for (std::size_t h = 0; h < cfg.hops; ++h) {
    EXPECT_EQ(lot.bottleneck(h).rate(), cfg.bottleneck_rate);
    EXPECT_GT(lot.bottleneck(h).stats().tx_packets, 0u) << "hop " << h;
  }
  // The end-to-end flow really crosses every hop: its packets transit all
  // intermediate routers.
  for (std::size_t r = 1; r < cfg.hops; ++r)
    EXPECT_GT(lot.router(r).forwarded_packets(), 0u);
}

TEST(ParkingLotTest, ValidatesConfig) {
  ParkingLot::Config cfg;
  cfg.hops = 0;
  EXPECT_THROW((ParkingLot{cfg, uniform_cc(make_reno_factory())}), std::invalid_argument);
  cfg.hops = 2;
  cfg.hop_delays = {1_ms};  // wrong size
  EXPECT_THROW((ParkingLot{cfg, uniform_cc(make_reno_factory())}), std::invalid_argument);
}

TEST(MultiBottleneckChainTest, StaggeredEntryGivesHeterogeneousPaths) {
  MultiBottleneckChain::Config cfg;
  cfg.flows = 3;
  cfg.hop_rates = {net::DataRate::mbps(100), net::DataRate::mbps(60),
                   net::DataRate::mbps(40)};
  MultiBottleneckChain chain{cfg, uniform_cc(make_reno_factory())};
  EXPECT_EQ(chain.flow_hops(0), 3u);
  EXPECT_EQ(chain.flow_hops(1), 2u);
  EXPECT_EQ(chain.flow_hops(2), 1u);
  for (std::size_t i = 0; i < cfg.flows; ++i) chain.start_flow(i, 0_s);
  chain.simulation().run_until(8_s);

  const auto goodputs = chain.goodputs_mbps(0_s, 8_s);
  double total = 0;
  for (std::size_t i = 0; i < goodputs.size(); ++i) {
    EXPECT_GT(goodputs[i], 1.0) << "flow " << i;
    total += goodputs[i];
  }
  // Everything funnels through the last (40 Mbit/s) hop.
  EXPECT_LE(total, 40.0 + 1.0);
  EXPECT_EQ(chain.bottleneck(2).rate(), net::DataRate::mbps(40));
}

}  // namespace
}  // namespace rss::scenario
