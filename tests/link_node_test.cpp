#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/device.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/queue.hpp"
#include "sim/simulation.hpp"

namespace rss::net {
namespace {

using namespace rss::sim::literals;

Packet to(std::uint32_t dst, std::uint32_t flow = 1, std::uint32_t payload = 100) {
  Packet p;
  p.dst_node = dst;
  p.flow_id = flow;
  p.payload_bytes = payload;
  return p;
}

TEST(LinkTest, AttachOnlyOnce) {
  sim::Simulation s;
  NetDevice a{s, DataRate::gbps(1), std::make_unique<DropTailQueue>(10), "a"};
  NetDevice b{s, DataRate::gbps(1), std::make_unique<DropTailQueue>(10), "b"};
  NetDevice c{s, DataRate::gbps(1), std::make_unique<DropTailQueue>(10), "c"};
  PointToPointLink link{s, 1_ms};
  link.attach(a, b);
  EXPECT_THROW(link.attach(a, c), std::logic_error);
}

TEST(LinkTest, LossModelDropsFraction) {
  sim::Simulation s;
  NetDevice a{s, DataRate::gbps(1), std::make_unique<DropTailQueue>(20000), "a"};
  NetDevice b{s, DataRate::gbps(1), std::make_unique<DropTailQueue>(10), "b"};
  PointToPointLink link{s, 0_ms};
  link.attach(a, b);
  link.set_loss_rate(0.2, sim::Rng{42});
  int received = 0;
  b.set_receive_callback([&](const Packet&, NetDevice&) { ++received; });
  const int n = 5000;
  for (int i = 0; i < n; ++i) (void)a.send(to(0));
  s.run();
  EXPECT_NEAR(static_cast<double>(link.packets_lost()) / n, 0.2, 0.03);
  EXPECT_EQ(received, n - static_cast<int>(link.packets_lost()));
}

TEST(LinkTest, LossRateValidation) {
  sim::Simulation s;
  PointToPointLink link{s, 1_ms};
  EXPECT_THROW(link.set_loss_rate(1.0, sim::Rng{1}), std::invalid_argument);
  EXPECT_THROW(link.set_loss_rate(-0.1, sim::Rng{1}), std::invalid_argument);
}

TEST(LinkTest, EveryTransmittedPacketIsDeliveredLostOrInFlight) {
  sim::Simulation s;
  NetDevice a{s, DataRate::mbps(100), std::make_unique<DropTailQueue>(1000), "a"};
  NetDevice b{s, DataRate::mbps(50), std::make_unique<DropTailQueue>(1000), "b"};
  PointToPointLink link{s, 2_ms};
  link.attach(a, b);
  link.set_loss_rate(0.1, sim::Rng{7});
  link.set_jitter(300_us, sim::Rng{8});
  for (int i = 0; i < 300; ++i) {
    (void)a.send(to(0, 1, 1000));
    (void)b.send(to(0, 2, 200));
  }
  std::uint64_t steps = 0;
  std::size_t most_in_flight = 0;
  while (s.scheduler().step()) {
    ++steps;
    const std::uint64_t sent = a.stats().tx_packets + b.stats().tx_packets;
    ASSERT_EQ(sent, link.packets_delivered() + link.packets_lost() + link.packets_in_flight())
        << "after step " << steps;
    most_in_flight = std::max(most_in_flight, link.packets_in_flight());
  }
  EXPECT_EQ(a.stats().tx_packets + b.stats().tx_packets, 600u);
  EXPECT_GT(link.packets_lost(), 0u);
  EXPECT_GT(most_in_flight, 50u);
  EXPECT_EQ(link.packets_in_flight(), 0u);
  EXPECT_EQ(link.packets_delivered(), a.stats().rx_packets + b.stats().rx_packets);
}

TEST(LinkTest, WireArmsOneDeliveryPerBusyDirection) {
  // 400 packets serialize in 448 us at 1 Gb/s, so at 5 ms all of them are
  // on a 10 ms wire at once — with a single delivery event queued.
  sim::Simulation s;
  NetDevice a{s, DataRate::gbps(1), std::make_unique<DropTailQueue>(400), "a"};
  NetDevice b{s, DataRate::gbps(1), std::make_unique<DropTailQueue>(10), "b"};
  PointToPointLink link{s, 10_ms};
  link.attach(a, b);
  std::vector<std::uint32_t> order;
  std::vector<sim::Time> arrivals;
  b.set_receive_callback([&](const Packet& p, NetDevice&) {
    order.push_back(p.flow_id);
    arrivals.push_back(s.now());
  });
  for (std::uint32_t i = 0; i < 400; ++i) {
    ASSERT_EQ(a.send(to(0, i)), NetDevice::TxResult::kQueued);
  }
  s.run_until(5_ms);
  EXPECT_EQ(link.packets_in_flight(), 400u);
  EXPECT_LE(s.scheduler().pending(), 2u);
  s.run();
  ASSERT_EQ(order.size(), 400u);
  const sim::Time slot = DataRate::gbps(1).transmission_time(to(0).size_bytes());
  for (std::uint32_t i = 0; i < 400; ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(arrivals[i], slot * static_cast<std::int64_t>(i + 1) + 10_ms) << "packet " << i;
  }
  EXPECT_EQ(link.packets_delivered(), 400u);
}

/// Jitter reorders deliveries. Transmits bursts of 8 at fixed times straight
/// onto the link, predicts every arrival by replaying the jitter stream, and
/// checks the wire hands packets up at exactly those times in stable arrival
/// order. Within a burst, later packets overtake earlier ones, the armed
/// head included.
TEST(LinkTest, JitteredWireMatchesReferenceModel) {
  for (const auto backend : {sim::QueueBackend::kBinaryHeap, sim::QueueBackend::kCalendarQueue}) {
    SCOPED_TRACE(backend == sim::QueueBackend::kBinaryHeap ? "heap" : "calendar");
    sim::Simulation s{1, backend};
    NetDevice a{s, DataRate::gbps(1), std::make_unique<DropTailQueue>(10), "a"};
    NetDevice b{s, DataRate::gbps(1), std::make_unique<DropTailQueue>(10), "b"};
    PointToPointLink link{s, 1_ms};
    link.attach(a, b);
    const sim::Time max_jitter = 400_us;
    link.set_jitter(max_jitter, sim::Rng{99});

    struct Expected {
      std::uint32_t id;
      sim::Time at;
    };
    const std::uint32_t n = 500;
    sim::Rng replay{99};
    std::vector<Expected> model;
    std::vector<sim::Time> sent_at;
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto burst = static_cast<std::int64_t>(i / 8);
      const auto in_burst = static_cast<std::int64_t>(i % 8);
      const sim::Time t = 2_ms * burst + 3_us * in_burst;
      sim::Time delay = 1_ms;
      delay += max_jitter * replay.next_double();
      model.push_back({i, t + delay});
      sent_at.push_back(t);
      s.at(t, [&link, &a, i] { link.transmit_from(a, to(0, i)); });
    }

    // Count the packets that, when sent, arrive before every earlier packet
    // still on the wire: each displaces the armed head.
    int overtakes = 0;
    for (std::uint32_t j = 1; j < n; ++j) {
      bool any_in_flight = false;
      bool ahead_of_all = true;
      for (std::uint32_t i = 0; i < j; ++i) {
        if (model[i].at <= sent_at[j]) continue;
        any_in_flight = true;
        if (model[i].at <= model[j].at) ahead_of_all = false;
      }
      if (any_in_flight && ahead_of_all) ++overtakes;
    }
    EXPECT_GT(overtakes, 10) << overtakes;

    std::stable_sort(model.begin(), model.end(),
                     [](const Expected& x, const Expected& y) { return x.at < y.at; });
    std::vector<Expected> got;
    b.set_receive_callback(
        [&](const Packet& p, NetDevice&) { got.push_back({p.flow_id, s.now()}); });
    s.run();
    ASSERT_EQ(got.size(), model.size());
    for (std::size_t k = 0; k < model.size(); ++k) {
      EXPECT_EQ(got[k].id, model[k].id) << "arrival " << k;
      EXPECT_EQ(got[k].at, model[k].at) << "arrival " << k;
    }
    EXPECT_EQ(link.packets_in_flight(), 0u);
  }
}

/// Two hosts and a router in a line: h1 -- r -- h2.
struct LineTopology {
  sim::Simulation sim{1};
  Node h1{sim, 1, "h1"};
  Node r{sim, 2, "r"};
  Node h2{sim, 3, "h2"};
  PointToPointLink l1{sim, 1_ms};
  PointToPointLink l2{sim, 1_ms};

  LineTopology(std::size_t router_queue = 100) {
    auto& d1 = h1.add_device(DataRate::gbps(1), std::make_unique<DropTailQueue>(100));
    auto& r_left = r.add_device(DataRate::gbps(1), std::make_unique<DropTailQueue>(100));
    auto& r_right =
        r.add_device(DataRate::mbps(10), std::make_unique<DropTailQueue>(router_queue));
    auto& d2 = h2.add_device(DataRate::gbps(1), std::make_unique<DropTailQueue>(100));
    l1.attach(d1, r_left);
    l2.attach(r_right, d2);
    h1.set_default_route(0);
    h2.set_default_route(0);
    r.set_route(3, 1);  // to h2 out the right device
    r.set_route(1, 0);  // to h1 out the left device
  }
};

TEST(NodeTest, ForwardsThroughRouter) {
  LineTopology t;
  std::vector<Packet> got;
  t.h2.register_flow_handler(1, [&](const Packet& p) { got.push_back(p); });
  ASSERT_EQ(t.h1.send(to(3)), Node::SendResult::kSent);
  t.sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].src_node, 1u);
  EXPECT_EQ(t.r.forwarded_packets(), 1u);
  EXPECT_EQ(t.h2.delivered_packets(), 1u);
}

TEST(NodeTest, BidirectionalDelivery) {
  LineTopology t;
  int at_h1 = 0, at_h2 = 0;
  t.h1.register_flow_handler(1, [&](const Packet&) { ++at_h1; });
  t.h2.register_flow_handler(1, [&](const Packet&) { ++at_h2; });
  (void)t.h1.send(to(3));
  (void)t.h2.send(to(1));
  t.sim.run();
  EXPECT_EQ(at_h1, 1);
  EXPECT_EQ(at_h2, 1);
}

TEST(NodeTest, NoRouteReported) {
  sim::Simulation s;
  Node n{s, 1, "n"};
  n.add_device(DataRate::gbps(1), std::make_unique<DropTailQueue>(10));
  EXPECT_EQ(n.send(to(99)), Node::SendResult::kNoRoute);
}

TEST(NodeTest, StallReportedForLocalOrigination) {
  sim::Simulation s;
  Node n{s, 1, "n"};
  n.add_device(DataRate::kbps(1), std::make_unique<DropTailQueue>(1));
  n.set_default_route(0);
  EXPECT_EQ(n.send(to(2)), Node::SendResult::kSent);  // serializing
  EXPECT_EQ(n.send(to(2)), Node::SendResult::kSent);  // queued
  EXPECT_EQ(n.send(to(2)), Node::SendResult::kStalled);
}

TEST(NodeTest, TransitDropsAreCountedNotReported) {
  // Router egress too slow + tiny queue: forwarded packets get dropped at
  // the router, invisible to the sender.
  LineTopology t{/*router_queue=*/1};
  int delivered = 0;
  t.h2.register_flow_handler(1, [&](const Packet&) { ++delivered; });
  for (int i = 0; i < 50; ++i) ASSERT_EQ(t.h1.send(to(3, 1, 1460)), Node::SendResult::kSent);
  t.sim.run();
  EXPECT_GT(t.r.forward_drops(), 0u);
  EXPECT_LT(delivered, 50);
  EXPECT_EQ(delivered + static_cast<int>(t.r.forward_drops()), 50);
}

TEST(NodeTest, DuplicateFlowHandlerRejected) {
  sim::Simulation s;
  Node n{s, 1, "n"};
  n.register_flow_handler(1, [](const Packet&) {});
  EXPECT_THROW(n.register_flow_handler(1, [](const Packet&) {}), std::logic_error);
}

TEST(NodeTest, UnhandledFlowIsDroppedSilently) {
  LineTopology t;
  (void)t.h1.send(to(3, /*flow=*/42));
  t.sim.run();  // no handler for flow 42 at h2 — must not crash
  EXPECT_EQ(t.h2.delivered_packets(), 1u);
}

TEST(NodeTest, RouteValidation) {
  sim::Simulation s;
  Node n{s, 1, "n"};
  EXPECT_THROW(n.set_route(2, 0), std::out_of_range);
  EXPECT_THROW(n.set_default_route(0), std::out_of_range);
}

}  // namespace
}  // namespace rss::net
