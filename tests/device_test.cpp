#include "net/device.hpp"

#include <gtest/gtest.h>

#include "net/link.hpp"
#include "net/queue.hpp"
#include "sim/simulation.hpp"

namespace rss::net {
namespace {

using namespace rss::sim::literals;

Packet make_packet(std::uint32_t payload = 1460, std::uint64_t uid = 1) {
  Packet p;
  p.uid = uid;
  p.payload_bytes = payload;
  return p;
}

struct Harness {
  sim::Simulation sim{1};
  NetDevice a;
  NetDevice b;
  PointToPointLink link;
  std::vector<Packet> received_at_b;

  explicit Harness(DataRate rate = DataRate::mbps(100), std::size_t ifq = 10,
                   sim::Time delay = 1_ms)
      : a{sim, rate, std::make_unique<DropTailQueue>(ifq), "a"},
        b{sim, DataRate::gbps(1), std::make_unique<DropTailQueue>(100), "b"},
        link{sim, delay} {
    link.attach(a, b);
    b.set_receive_callback([this](const Packet& p, NetDevice&) { received_at_b.push_back(p); });
  }
};

TEST(NetDeviceTest, DeliversAfterSerializationPlusPropagation) {
  Harness h;
  // 1500 B at 100 Mbps = 120 us serialization; +1 ms propagation.
  ASSERT_EQ(h.a.send(make_packet()), NetDevice::TxResult::kQueued);
  h.sim.run();
  ASSERT_EQ(h.received_at_b.size(), 1u);
  EXPECT_EQ(h.sim.now(), 120_us + 1_ms);
}

TEST(NetDeviceTest, SerializesBackToBack) {
  Harness h;
  for (std::uint64_t i = 0; i < 3; ++i)
    ASSERT_EQ(h.a.send(make_packet(1460, i)), NetDevice::TxResult::kQueued);
  h.sim.run();
  ASSERT_EQ(h.received_at_b.size(), 3u);
  // Last packet leaves the NIC at 3*120us, arrives 1 ms later.
  EXPECT_EQ(h.sim.now(), 360_us + 1_ms);
  EXPECT_EQ(h.received_at_b[0].uid, 0u);
  EXPECT_EQ(h.received_at_b[2].uid, 2u);
}

TEST(NetDeviceTest, FluidShareStretchesTheNextPacketToStart) {
  // A fluid share set while packets wait applies to each packet as it
  // starts service: the packet in service keeps its 120 us slot, the next
  // one gets 120 us / (1 - 0.5) = 240 us.
  Harness h;
  std::vector<sim::Time> arrivals;
  h.b.set_receive_callback(
      [&arrivals, &h](const Packet&, NetDevice&) { arrivals.push_back(h.sim.now()); });
  for (std::uint64_t i = 0; i < 4; ++i)
    ASSERT_EQ(h.a.send(make_packet(1460, i)), NetDevice::TxResult::kQueued);
  h.sim.at(150_us, [&h] { h.a.set_fluid_share(0.5); });  // after the first completion
  h.sim.run();
  ASSERT_EQ(arrivals.size(), 4u);
  EXPECT_EQ(arrivals[0], 120_us + 1_ms);
  EXPECT_EQ(arrivals[1], 240_us + 1_ms);  // in service when the share was set
  EXPECT_EQ(arrivals[2], 480_us + 1_ms);  // one stretched slot later
  EXPECT_EQ(arrivals[3], 720_us + 1_ms);
}

TEST(NetDeviceTest, DeliveryTiedWithTheNextCompletionFiresFirst) {
  // With a link delay of one serialization time, packet k's delivery and
  // packet k+1's completion tie at (at, birth) on the default stream. The
  // device re-arms after transmit_from, so the delivery's rank is the
  // earlier one and it fires first, as the chained completions did.
  Harness h{DataRate::mbps(100), 10, 120_us};
  std::vector<std::uint64_t> sent_at_delivery;
  h.b.set_receive_callback([&sent_at_delivery, &h](const Packet&, NetDevice&) {
    sent_at_delivery.push_back(h.a.stats().tx_packets);
  });
  for (std::uint64_t i = 0; i < 3; ++i)
    ASSERT_EQ(h.a.send(make_packet(1460, i)), NetDevice::TxResult::kQueued);
  h.sim.run();
  EXPECT_EQ(sent_at_delivery, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(NetDeviceTest, RejectsWhenIfqFull) {
  Harness h{DataRate::mbps(100), /*ifq=*/2};
  // First send starts transmitting immediately (dequeued), so the IFQ can
  // absorb two more; the fourth is rejected.
  EXPECT_EQ(h.a.send(make_packet()), NetDevice::TxResult::kQueued);
  EXPECT_EQ(h.a.send(make_packet()), NetDevice::TxResult::kQueued);
  EXPECT_EQ(h.a.send(make_packet()), NetDevice::TxResult::kQueued);
  EXPECT_EQ(h.a.send(make_packet()), NetDevice::TxResult::kRejected);
  EXPECT_EQ(h.a.stats().send_stalls, 1u);
}

TEST(NetDeviceTest, StallCallbackFires) {
  Harness h{DataRate::mbps(100), 1};
  int stalls = 0;
  h.a.set_stall_callback([&](const Packet&) { ++stalls; });
  (void)h.a.send(make_packet());
  (void)h.a.send(make_packet());
  (void)h.a.send(make_packet());  // rejected
  EXPECT_EQ(stalls, 1);
}

TEST(NetDeviceTest, OccupancyIncludesInFlightPacket) {
  Harness h{DataRate::mbps(100), 10};
  EXPECT_EQ(h.a.occupancy_packets(), 0u);
  (void)h.a.send(make_packet());
  EXPECT_EQ(h.a.occupancy_packets(), 1u);  // being serialized
  (void)h.a.send(make_packet());
  EXPECT_EQ(h.a.occupancy_packets(), 2u);  // 1 wire + 1 queued
  h.sim.run();
  EXPECT_EQ(h.a.occupancy_packets(), 0u);
}

TEST(NetDeviceTest, StatsCountTxRx) {
  Harness h;
  (void)h.a.send(make_packet(1000));
  h.sim.run();
  EXPECT_EQ(h.a.stats().tx_packets, 1u);
  EXPECT_EQ(h.a.stats().tx_bytes, 1040u);
  EXPECT_EQ(h.b.stats().rx_packets, 1u);
  EXPECT_EQ(h.b.stats().rx_bytes, 1040u);
}

TEST(NetDeviceTest, DrainRateMatchesLineRate) {
  // 100 packets of 1500 B at 100 Mbps must take exactly 12 ms to serialize.
  Harness h{DataRate::mbps(100), 200, 0_ms};
  for (std::uint64_t i = 0; i < 100; ++i) (void)h.a.send(make_packet(1460, i));
  h.sim.run();
  EXPECT_EQ(h.sim.now(), 12_ms);
  EXPECT_EQ(h.received_at_b.size(), 100u);
}

TEST(NetDeviceTest, ValidatesConstruction) {
  sim::Simulation s;
  EXPECT_THROW(NetDevice(s, DataRate::mbps(100), nullptr, "x"), std::invalid_argument);
  EXPECT_THROW(NetDevice(s, DataRate::bps(0), std::make_unique<DropTailQueue>(1), "x"),
               std::invalid_argument);
}

TEST(DataRateTest, TransmissionTimeRoundsUp) {
  EXPECT_EQ(DataRate::mbps(100).transmission_time(1500), 120_us);
  EXPECT_EQ(DataRate::gbps(1).transmission_time(1500), 12_us);
  // 1 byte at 3 bps: 8/3 s -> ceil to nanoseconds.
  EXPECT_EQ(DataRate::bps(3).transmission_time(1).nanoseconds_count(), 2'666'666'667);
}

TEST(DataRateTest, BytesOverInterval) {
  EXPECT_EQ(DataRate::mbps(100).bytes_over(1_s), 12'500'000u);
  EXPECT_EQ(DataRate::mbps(8).bytes_over(500_ms), 500'000u);
}

}  // namespace
}  // namespace rss::net
