// Lazy departures (NetDevice::depart_lazily) against scheduled completions.
//
// ScenarioBuilder lets the NIC of every single-NIC host apply its departures
// lazily. The same topology with a leaf node hung behind each such host has
// no eligible NIC (every host then has two), while the original nodes keep
// their indices, rank origins, routes and RED forks: the leaves and their
// links are appended last. So the two builds must agree exactly on
// everything the original devices do — per-packet deliveries, Web100 MIBs,
// queue and device stats — for every shipped spec and preset. The lockstep
// script reads two hosts' NICs from timers, from deliveries, between bare
// step()s and after run_until, over a delay-0 link too, and then demotes
// the lazy NICs mid-run in each way the device allows: loss or jitter on
// the link, a second device on the node, a fluid share, a new origin.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "net/device.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/spec_cli.hpp"
#include "scenario/spec_io.hpp"
#include "scenario/topology.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "web100/mib.hpp"

namespace rss::scenario {
namespace {

using namespace rss::sim::literals;

/// `spec` with a drop-tail leaf node linked behind every node that has
/// exactly one link.
TopologySpec with_leaves(TopologySpec spec) {
  std::vector<std::size_t> degree(spec.nodes.size(), 0);
  for (const LinkSpec& link : spec.links) {
    ++degree[*node_index(spec, link.a)];
    ++degree[*node_index(spec, link.b)];
  }
  const std::size_t nodes = spec.nodes.size();
  for (std::size_t n = 0; n < nodes; ++n) {
    if (degree[n] != 1) continue;
    LinkSpec leaf;
    leaf.a = spec.nodes[n];
    leaf.b = spec.nodes[n] + "~leaf";
    spec.nodes.push_back(leaf.b);
    spec.links.push_back(leaf);
  }
  return spec;
}

/// The devices of the first `links` links, a end then b end.
std::vector<net::NetDevice*> original_devices(Scenario& s, const TopologySpec& spec,
                                              std::size_t links) {
  std::vector<net::NetDevice*> devices;
  for (std::size_t l = 0; l < links; ++l) {
    devices.push_back(&s.device(spec.links[l].a, spec.links[l].b));
    devices.push_back(&s.device(spec.links[l].b, spec.links[l].a));
  }
  return devices;
}

/// Everything a reader sees of `dev`. Accessor `first` (0..3) is read
/// before the others, so each one's own catch-up is what a read sees.
std::string device_state(const net::NetDevice& dev, int first = 0) {
  std::size_t occupancy = 0;
  bool busy = false;
  net::QueueStats q;
  net::DeviceStats d;
  for (int i = 0; i < 4; ++i) {
    switch ((first + i) % 4) {
      case 0: d = dev.stats(); break;
      case 1: q = dev.ifq().stats(); break;
      case 2: occupancy = dev.occupancy_packets(); break;
      default: busy = dev.transmitting(); break;
    }
  }
  std::ostringstream os;
  os << dev.name() << " occ " << occupancy << " busy " << busy << " q " << q.enqueued << '/'
     << q.dequeued << '/' << q.dropped << '/' << q.bytes_enqueued << '/' << q.bytes_dropped
     << '/' << q.ce_marked << '/' << q.peak_packets << " tx " << d.tx_packets << '/'
     << d.tx_bytes << " rx " << d.rx_packets << '/' << d.rx_bytes << " stalls "
     << d.send_stalls;
  return os.str();
}

/// One packet a device handed up.
struct Delivery {
  std::int64_t at_ns;
  std::uint64_t uid;
  std::uint32_t flow;
  std::size_t device;  ///< index into the logged devices
  bool operator==(const Delivery&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Delivery& d) {
  return os << "at " << d.at_ns << " ns, uid " << d.uid << ", flow " << d.flow << ", device "
            << d.device;
}

/// Log every packet the devices hand up.
void log_deliveries(const std::vector<net::NetDevice*>& devices, std::vector<Delivery>& log) {
  for (std::size_t i = 0; i < devices.size(); ++i) {
    auto up = devices[i]->receive_callback();
    devices[i]->set_receive_callback([&log, up, i](const net::Packet& p, net::NetDevice& at) {
      log.push_back({at.simulation().now().nanoseconds_count(), p.uid, p.flow_id, i});
      up(p, at);
    });
  }
}

struct Observed {
  std::vector<Delivery> deliveries;
  std::vector<std::string> final_state;
  std::size_t lazy_devices{0};
  std::uint64_t events{0};
};

Observed observe(spec::ScenarioSpec point, bool leaves) {
  const std::size_t links = point.topology.links.size();
  point.topology.execution.partitions = 1;
  if (leaves) point.topology = with_leaves(point.topology);
  Observed out;
  const auto s = spec::build_scenario(point);
  const std::vector<net::NetDevice*> devices = original_devices(*s, point.topology, links);
  for (const net::NetDevice* dev : devices) out.lazy_devices += dev->departs_lazily() ? 1 : 0;
  log_deliveries(devices, out.deliveries);
  s->run_until(std::min(point.run.duration, 2_s));  // rss_scenario --roundtrip's horizon
  for (const net::NetDevice* dev : devices) out.final_state.push_back(device_state(*dev));
  for (std::size_t f = 0; f < s->flow_count(); ++f) {
    std::ostringstream os;
    if (s->is_fluid(f)) {
      os << "fluid " << f << ' ' << s->fluid_sink(f).delivered_bytes();
    } else {
      os << "flow " << f << ' ' << s->sender(f).mib();
    }
    out.final_state.push_back(os.str());
  }
  out.events = s->events_executed();
  return out;
}

void expect_same_run(const spec::ScenarioSpec& point) {
  const Observed lazy = observe(point, false);
  const Observed scheduled = observe(point, true);
  EXPECT_GT(lazy.lazy_devices, 0u) << "no NIC applied its departures lazily";
  EXPECT_EQ(scheduled.lazy_devices, 0u) << "a leaf left a NIC eligible";
  EXPECT_LT(lazy.events, scheduled.events) << "the lazy NICs saved no events";
  EXPECT_GT(lazy.deliveries.size(), 100u);
  ASSERT_EQ(lazy.deliveries.size(), scheduled.deliveries.size());
  for (std::size_t i = 0; i < lazy.deliveries.size(); ++i) {
    ASSERT_EQ(lazy.deliveries[i], scheduled.deliveries[i]) << "delivery " << i;
  }
  EXPECT_EQ(lazy.final_state, scheduled.final_state);
}

TEST(LazyDepartureDifferential, EverySpecFileMatchesScheduledCompletions) {
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator{RSS_SPECS_DIR}) {
    if (entry.path().extension() != ".json") continue;
    SCOPED_TRACE(entry.path().filename().string());
    for (const spec::SweepPoint& point :
         spec::expand_scenario_spec(spec::read_spec_file(entry.path().string()))) {
      expect_same_run(point.spec);
      if (HasFailure()) return;
    }
    ++files;
  }
  EXPECT_GE(files, 7u);
}

TEST(LazyDepartureDifferential, EveryPresetMatchesScheduledCompletions) {
  for (const std::string& name : spec::preset_names()) {
    SCOPED_TRACE(name);
    expect_same_run(spec::preset_spec(name));
    if (HasFailure()) return;
  }
}

// --- two-host lockstep script -----------------------------------------------

/// Two hosts on one link: a Reno flow from a, and from b a Restricted
/// Slow-Start flow, whose PID samples b's NIC occupancy from a timer. a's
/// IFQ is drop-tail and small enough to stall; b's is RED.
TopologySpec two_hosts(sim::Time delay) {
  TopologySpec spec;
  spec.nodes = {"a", "b"};
  LinkSpec link;
  link.a = "a";
  link.b = "b";
  link.delay = delay;
  link.a_dev.rate = net::DataRate::mbps(100);
  link.a_dev.ifq_packets = 30;
  link.b_dev.rate = net::DataRate::mbps(50);
  link.b_dev.ifq_packets = 80;
  link.b_dev.qdisc = QueueDiscipline::kRed;
  spec.links = {link};
  FlowSpec ab;
  ab.src = "a";
  ab.dst = "b";
  ab.start = sim::Time::zero();
  FlowSpec ba;
  ba.src = "b";
  ba.dst = "a";
  ba.start = 1_ms;
  spec.flows = {ab, ba};
  return spec;
}

struct Side {
  std::unique_ptr<Scenario> s;
  net::NetDevice* a{nullptr};
  net::NetDevice* b{nullptr};
  std::vector<std::string> log;
  int reads{0};

  /// Both NICs. Successive reads start with successive accessors (see
  /// device_state), so each accessor is some read's first.
  [[nodiscard]] std::string snapshot() {
    const int first = reads++ % 4;
    return std::to_string(s->simulation().now().nanoseconds_count()) + " | " +
           device_state(*a, first) + " | " + device_state(*b, first);
  }
  [[nodiscard]] std::uint64_t tx_packets() const {
    return a->stats().tx_packets + b->stats().tx_packets;
  }
};

Side make_side(sim::Time delay, bool leaves) {
  TopologySpec spec = two_hosts(delay);
  if (leaves) spec = with_leaves(spec);
  Side side;
  side.s = ScenarioBuilder{spec}.build(
      [reno = make_reno_factory(), rss = make_rss_factory()](std::size_t flow) {
        return flow == 0 ? reno() : rss();
      });
  side.a = &side.s->device("a", "b");
  side.b = &side.s->device("b", "a");
  return side;
}

void arm_reads(Side& side) {
  // Occupancy and stats read from an untagged timer ...
  side.s->simulation().every(170_us, [&side](sim::Time) {
    side.log.push_back("timer " + side.snapshot());
    return true;
  });
  // ... and from inside every delivery.
  for (net::NetDevice* dev : {side.a, side.b}) {
    auto up = dev->receive_callback();
    dev->set_receive_callback([&side, up](const net::Packet& p, net::NetDevice& at) {
      side.log.push_back("rx " + at.name() + ' ' + std::to_string(p.uid) + ' ' +
                         side.snapshot());
      up(p, at);
    });
  }
}

/// What puts a lazy NIC back on scheduled completions mid-run.
enum class Demotion { kLoss, kJitter, kSecondDevice, kFluidShare, kNewOrigin };

/// Apply `demotion` to `side` (both builds get the same call) and return
/// the NIC it must have demoted on the lazy build.
net::NetDevice& demote(Side& side, Demotion demotion) {
  switch (demotion) {
    case Demotion::kLoss: side.a->link()->set_loss_rate(0.01, sim::Rng{5}); break;
    case Demotion::kJitter: side.a->link()->set_jitter(300_us, sim::Rng{6}); break;
    case Demotion::kSecondDevice:
      (void)side.s->node("a").add_device(net::DataRate::mbps(10),
                                         std::make_unique<net::DropTailQueue>(10), "a/spare");
      break;
    case Demotion::kFluidShare: side.b->set_fluid_share(0.25); return *side.b;
    case Demotion::kNewOrigin: side.a->set_event_origin(side.a->event_origin() + 10); break;
  }
  return *side.a;
}

struct LockstepCase {
  std::int64_t delay_us;
  Demotion first;  ///< loss and jitter on the link follow 70 ms later
  const char* name;
};

class LazyDepartureLockstep : public ::testing::TestWithParam<LockstepCase> {};

TEST_P(LazyDepartureLockstep, ReadsMatchScheduledCompletions) {
  const sim::Time delay = sim::Time::microseconds(GetParam().delay_us);
  Side lazy = make_side(delay, false);
  Side scheduled = make_side(delay, true);
  ASSERT_TRUE(lazy.a->departs_lazily() && lazy.b->departs_lazily());
  ASSERT_FALSE(scheduled.a->departs_lazily() || scheduled.b->departs_lazily());
  arm_reads(lazy);
  arm_reads(scheduled);

  // Bare steps: each event the lazy run pops, the scheduled run pops too,
  // after the serialization completions that come before it. From the
  // start, where the NICs idle between slow-start bursts, then in the
  // congested steady state.
  const auto lockstep = [&lazy, &scheduled](int steps) {
    for (int i = 0; i < steps; ++i) {
      ASSERT_TRUE(lazy.s->simulation().scheduler().step());
      for (;;) {
        const std::uint64_t tx = scheduled.tx_packets();
        ASSERT_TRUE(scheduled.s->simulation().scheduler().step());
        if (scheduled.tx_packets() == tx) break;
      }
      lazy.log.push_back("step " + lazy.snapshot());
      scheduled.log.push_back("step " + scheduled.snapshot());
      ASSERT_EQ(lazy.log.back(), scheduled.log.back()) << "step " << i;
    }
  };
  lockstep(3000);
  for (Side* side : {&lazy, &scheduled}) {
    side->s->run_until(200_ms);
    side->log.push_back("run_until " + side->snapshot());
  }
  ASSERT_EQ(lazy.log, scheduled.log);
  lockstep(2000);

  // Mid-run, the case's demotion, then loss and jitter on the link: each
  // puts the lazy NICs it concerns back on scheduled completions.
  for (Side* side : {&lazy, &scheduled}) {
    net::PointToPointLink& link = *side->a->link();
    sim::Simulation& sim = side->s->simulation();
    sim.at(sim.now() + 50_ms, [side, first = GetParam().first, lazy_side = side == &lazy] {
      const net::NetDevice& demoted = demote(*side, first);
      if (lazy_side) {
        EXPECT_FALSE(demoted.departs_lazily());
      }
    });
    sim.at(sim.now() + 120_ms + 3_us, [&link] {
      link.set_loss_rate(0.01, sim::Rng{5});
      link.set_jitter(300_us, sim::Rng{6});
    });
    side->s->run_until(sim.now() + 800_ms);
    side->log.push_back("run_until " + side->snapshot());
  }
  EXPECT_FALSE(lazy.a->departs_lazily() || lazy.b->departs_lazily());
  EXPECT_GT(lazy.a->link()->packets_lost(), 0u);
  EXPECT_EQ(lazy.a->link()->packets_lost(), scheduled.a->link()->packets_lost());

  ASSERT_EQ(lazy.log.size(), scheduled.log.size());
  for (std::size_t i = 0; i < lazy.log.size(); ++i) {
    ASSERT_EQ(lazy.log[i], scheduled.log[i]) << "read " << i;
  }
  for (std::size_t f = 0; f < 2; ++f) {
    std::ostringstream l;
    std::ostringstream r;
    l << lazy.s->sender(f).mib();
    r << scheduled.s->sender(f).mib();
    EXPECT_EQ(l.str(), r.str()) << "flow " << f;
  }
  EXPECT_GT(lazy.a->stats().send_stalls, 0u) << "a's IFQ never filled";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LazyDepartureLockstep,
    ::testing::Values(LockstepCase{0, Demotion::kLoss, "delay_0us_loss"},
                      LockstepCase{2'000, Demotion::kLoss, "loss"},
                      LockstepCase{2'000, Demotion::kJitter, "jitter"},
                      LockstepCase{2'000, Demotion::kSecondDevice, "second_device"},
                      LockstepCase{2'000, Demotion::kFluidShare, "fluid_share"},
                      LockstepCase{2'000, Demotion::kNewOrigin, "new_origin"}),
    [](const auto& info) { return std::string{info.param.name}; });

}  // namespace
}  // namespace rss::scenario
