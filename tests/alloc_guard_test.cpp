// Zero-allocation invariant for the event core, enforced at runtime.
//
// The steady-state scheduler hot path — schedule / cancel / reschedule
// (the per-ACK RTO pattern) and persistent slots re-armed from their own
// firings (packet serialization bursts) — performs no heap allocation.
// scripts/lint_invariants.py bans the allocating *constructs*
// statically; this suite counts actual operator-new calls via the
// sim/alloc_guard.hpp hook and asserts the count is exactly zero once the
// arena, free list, and queue storage are warm.
//
// Warm-up matters: the first iterations legitimately allocate (slot arena
// growth, heap/bucket vector capacity). Steady state starts when a loop's
// working set stops growing — which the arena-flatness tests already pin —
// so each test runs one warm-up round, then measures an identical round.

#define RSS_ALLOC_GUARD_IMPLEMENT
#include "sim/alloc_guard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/codel.hpp"
#include "net/data_rate.hpp"
#include "net/device.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/wan_path.hpp"
#include "sim/partition.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"
#include "web100/polling_agent.hpp"

namespace rss::sim {
namespace {

using namespace rss::sim::literals;

TEST(AllocGuard, HookIsInstalledAndCounts) {
  ASSERT_TRUE(alloc_guard::installed());
  const alloc_guard::AllocScope scope;
  std::vector<std::uint64_t> v(1024);  // allocator reaches operator new
  EXPECT_GE(scope.allocations(), 1u);
  EXPECT_GE(scope.bytes(), 1024 * sizeof(std::uint64_t));
}

TEST(AllocGuard, InlineCallbackNeverAllocates) {
  std::uint64_t sink = 0;
  const alloc_guard::AllocScope scope;
  for (int i = 0; i < 1000; ++i) {
    Scheduler::Callback cb{[&sink] { ++sink; }};
    Scheduler::Callback moved{std::move(cb)};
    moved();
  }
  EXPECT_EQ(sink, 1000u);
  EXPECT_EQ(scope.allocations(), 0u);
}

/// The per-ACK RTO pattern: arm a timer, cancel it, arm the next one, with a
/// periodic pop keeping the queue's drain path hot too.
void rto_storm_round(Scheduler& s, std::uint64_t& fired, int iterations) {
  for (int i = 0; i < iterations; ++i) {
    const EventId rto = s.schedule_in(10_ms, [&fired] { ++fired; });
    s.schedule_in(1_us, [&fired] { ++fired; });  // tick, popped below
    ASSERT_TRUE(s.cancel(rto));
    s.run_until(s.now() + 2_us);  // pops the tick, leaves nothing pending
    ASSERT_TRUE(s.empty());
  }
}

class AllocGuardBackends : public ::testing::TestWithParam<QueueBackend> {};

TEST_P(AllocGuardBackends, SteadyStateScheduleCancelRescheduleIsAllocFree) {
  Scheduler s{GetParam()};
  std::uint64_t fired = 0;
  rto_storm_round(s, fired, 2000);  // warm-up: arena + queue storage growth
  const std::size_t warm_slots = s.arena_slots();

  const alloc_guard::AllocScope scope;
  rto_storm_round(s, fired, 2000);
  EXPECT_EQ(scope.allocations(), 0u)
      << "steady-state schedule/cancel/reschedule allocated " << scope.allocations()
      << " times (" << scope.bytes() << " bytes)";
  EXPECT_EQ(s.arena_slots(), warm_slots) << "slot arena grew in steady state";
}

/// Cancel-heavy storm: 64 timers stay armed while each is cancelled and
/// re-armed earlier, with no pops in between. A queue that cancels lazily
/// keeps every cancelled entry and must keep growing; an eager one holds
/// exactly the 64 live entries, so a warm round allocates nothing.
TEST_P(AllocGuardBackends, SteadyStateCancelStormWithoutPopsIsAllocFree) {
  Scheduler s{GetParam()};
  std::vector<EventId> timers(64);
  std::int64_t deadline_ns = 1'000'000'000;
  auto round = [&] {
    for (int i = 0; i < 4000; ++i) {
      EventId& timer = timers[static_cast<std::size_t>(i) % timers.size()];
      if (timer.valid()) {
        ASSERT_TRUE(s.cancel(timer));
      }
      timer = s.schedule_at(Time::nanoseconds(--deadline_ns), [] {});
    }
    ASSERT_EQ(s.pending(), timers.size());
    ASSERT_EQ(s.queued_entries(), timers.size());
  };
  round();  // warm-up: arena + queue storage growth

  const alloc_guard::AllocScope scope;
  round();
  EXPECT_EQ(scope.allocations(), 0u)
      << "steady-state cancel storm allocated " << scope.allocations() << " times ("
      << scope.bytes() << " bytes)";
}

/// The per-ACK RTO pattern on sim::Timer: re-armed on every ACK (a tick
/// popped every microsecond), now and then disarmed, so its one wake-up
/// keeps going stale and re-queueing itself; it fires once per round.
TEST_P(AllocGuardBackends, SteadyStateTimerRearmStormIsAllocFree) {
  Scheduler s{GetParam()};
  int fired = 0;
  Timer rto{s, &fired, [](void* count) { ++*static_cast<int*>(count); }};
  auto round = [&] {
    for (int i = 0; i < 4000; ++i) {
      if (i % 64 == 63) {
        rto.disarm();
      } else {
        rto.arm_in(200_us);
      }
      s.schedule_in(1_us, [] {});
      s.run_until(s.now() + 1_us);
    }
    s.run_until(s.now() + 1_ms);
  };
  // Warm-up: arena + queue storage growth. A calendar bucket reaches its
  // working capacity only once the tick and a stale wake-up have shared it,
  // which depends on where the disarms fall in the calendar's year, so warm
  // until a whole round allocates nothing.
  for (int warm = 0; warm < 16; ++warm) {
    const alloc_guard::AllocScope warm_scope;
    round();
    if (warm_scope.allocations() == 0) break;
  }
  const int warm_fired = fired;
  const std::size_t warm_slots = s.arena_slots();

  const alloc_guard::AllocScope scope;
  round();
  EXPECT_EQ(fired, warm_fired + 1);
  EXPECT_EQ(scope.allocations(), 0u)
      << "steady-state timer re-arm storm allocated " << scope.allocations() << " times ("
      << scope.bytes() << " bytes)";
  EXPECT_EQ(s.arena_slots(), warm_slots) << "slot arena grew in steady state";
}

/// A persistent slot that re-arms itself from its own firing, a fixed
/// stride later, until its burst runs out or it disarms itself: the shape of
/// a NIC serializing back-to-back packets.
struct SelfRearming {
  Scheduler* s{nullptr};
  EventId slot;
  Time stride;
  std::uint64_t left{0};
  std::uint64_t fired{0};
  std::uint64_t disarm_at{0};  ///< firing count at which it disarms itself; 0: never

  static void fire(void* self) {
    auto* owner = static_cast<SelfRearming*>(self);
    ++owner->fired;
    if (--owner->left == 0) return;
    Scheduler& s = *owner->s;
    s.arm_persistent(owner->slot, 0, s.draw_rank(0), s.now(), s.now() + owner->stride);
    if (owner->fired == owner->disarm_at) s.disarm_persistent(owner->slot);
  }

  void start(std::uint64_t count) {
    left = count;
    s->arm_persistent(slot, 0, s->draw_rank(0), s->now(), s->now() + 1_us);
  }
};

TEST_P(AllocGuardBackends, SteadyStateSelfRearmingSlotIsAllocFree) {
  Scheduler s{GetParam()};
  SelfRearming burst{&s, {}, 12_us};
  burst.slot = s.add_persistent(&SelfRearming::fire, &burst);
  burst.start(3000);  // warm-up
  s.run();
  ASSERT_EQ(burst.fired, 3000u);

  const alloc_guard::AllocScope scope;
  burst.start(3000);
  s.run();
  EXPECT_EQ(burst.fired, 6000u);
  EXPECT_EQ(scope.allocations(), 0u)
      << "steady-state self-re-arming slot allocated " << scope.allocations() << " times ("
      << scope.bytes() << " bytes)";
}

TEST_P(AllocGuardBackends, SelfDisarmingSlotStaysAllocFree) {
  Scheduler s{GetParam()};
  SelfRearming burst{&s, {}, 5_us};
  burst.slot = s.add_persistent(&SelfRearming::fire, &burst);
  auto round = [&] {
    burst.fired = 0;
    burst.disarm_at = 100;
    burst.start(1000);
    s.run();
    EXPECT_EQ(burst.fired, 100u);
    EXPECT_TRUE(s.empty());
  };
  // One round spans ~500us but the calendar backend's year is 16 days x
  // 100us = 1.6ms, so a single round leaves most bucket vectors at zero
  // capacity and the next round would allocate on first insert into each
  // cold bucket. Warm until a full year has elapsed so every bucket owns
  // storage before measuring.
  while (s.now() < 2_ms) round();

  const alloc_guard::AllocScope scope;
  round();
  EXPECT_EQ(scope.allocations(), 0u);
}

/// Steady-state link wire: once a direction's ring and the scheduler arena
/// are warm, putting packets on the wire and delivering them — jittered, so
/// later packets overtake the armed head and re-arm it — performs no heap
/// allocation. A self-rescheduling sender calls transmit_from directly, so
/// the queue holds only the sender and the wire's head however many packets
/// are in flight, and the calendar backend never re-buckets.
TEST_P(AllocGuardBackends, SteadyStateLinkWireIsAllocFree) {
  Simulation s{1, GetParam()};
  net::NetDevice a{s, net::DataRate::gbps(1), std::make_unique<net::DropTailQueue>(4), "a"};
  net::NetDevice b{s, net::DataRate::gbps(1), std::make_unique<net::DropTailQueue>(4), "b"};
  net::PointToPointLink link{s, 1_ms};
  link.attach(a, b);
  link.set_jitter(200_us, Rng{3});
  std::uint64_t received = 0;
  b.set_receive_callback([&received](const net::Packet&, net::NetDevice&) { ++received; });

  struct Sender {
    Simulation* sim;
    net::PointToPointLink* link;
    const net::NetDevice* from;
    int* left;
    void operator()() const {
      link->transmit_from(*from, net::Packet{});
      if (--*left > 0) sim->in(1_us, *this);
    }
  };
  int left = 0;
  std::size_t most_pending = 0;
  auto round = [&](int packets) {
    left = packets;
    s.in(1_us, Sender{&s, &link, &a, &left});
    while (s.scheduler().step()) most_pending = std::max(most_pending, s.scheduler().pending());
  };

  round(2048);  // warm-up: the wire's ring and the scheduler arena
  ASSERT_EQ(received, 2048u);

  const alloc_guard::AllocScope scope;
  round(2048);
  EXPECT_EQ(received, 4096u);
  EXPECT_EQ(link.packets_in_flight(), 0u);
  EXPECT_LE(most_pending, 2u);
  EXPECT_EQ(scope.allocations(), 0u)
      << "steady-state wire allocated " << scope.allocations() << " times ("
      << scope.bytes() << " bytes)";
}

/// Steady-state partitioned window loop: once the handoff channels' staging
/// vectors, the merge scratch, and both schedulers' arenas are warm, a
/// window round — stage, publish, drain, deliver — performs no heap
/// allocation. Measured on the single-worker path (threads = 1): libstdc++'s
/// std::barrier allocates its own state, so the threaded path pays a fixed
/// per-run_until setup cost, but the per-window loop itself is shared.
TEST(AllocGuard, SteadyStatePartitionWindowLoopIsAllocFree) {
  struct Counter {
    Simulation* sim{nullptr};
    std::uint64_t delivered{0};

    static void deliver(void* self, const std::byte* /*payload*/, Time at, Time /*staged_at*/,
                        std::uint32_t /*origin*/, std::uint64_t /*rank*/) {
      auto* c = static_cast<Counter*>(self);
      c->sim->at(at, [c] { ++c->delivered; });
    }
  };

  Simulation a{1};
  Simulation b{2};
  PartitionedEngine engine{{&a, &b}, {.lookahead = 100_us, .threads = 1}};
  HandoffChannel& ab = engine.add_channel(0, 1);
  Counter counter{&b, 0};

  Time horizon = Time::zero();
  auto round = [&](int windows) {
    const Time start = horizon;
    for (int i = 0; i < windows; ++i) {
      a.at(start + Time::microseconds(i * 100), [&] {
        const std::uint64_t tag = 0;
        ab.stage(a.now() + 100_us, a.now(), 0, a.scheduler().draw_rank(0), &counter,
                 &Counter::deliver, tag);
      });
    }
    horizon = start + Time::microseconds(windows * 100 + 200);
    engine.run_until(horizon);
  };

  round(64);  // warm-up: channel storage, merge scratch, both arenas
  ASSERT_EQ(counter.delivered, 64u);

  const alloc_guard::AllocScope scope;
  round(64);
  EXPECT_EQ(counter.delivered, 128u);
  EXPECT_EQ(scope.allocations(), 0u)
      << "steady-state window loop allocated " << scope.allocations() << " times ("
      << scope.bytes() << " bytes)";
}

/// A whole TCP flow in steady state: the paper's WanPath (100 Mb/s NIC with
/// a 100-packet IFQ) with Web100 polling off, so what runs is the sender,
/// the receiver, both NICs and the wire. The RTT is cut to 10 ms so that
/// Reno's sawtooth overflows the IFQ (a send-stall) every second or so, and
/// a RED NIC drops early. Once slow start is over and every ring, arena and
/// heap has reached its working size, simulated seconds of transfer,
/// send-stalls and drops included, allocate nothing: no packet container
/// allocates per packet.
struct FlowCase {
  const char* name;
  bool rss;
  scenario::QueueDiscipline qdisc;
};

class AllocGuardFlow : public ::testing::TestWithParam<FlowCase> {};

TEST_P(AllocGuardFlow, WarmWanPathFlowIsAllocFree) {
  scenario::WanPath::Config config;
  config.enable_web100 = false;
  config.path.one_way_delay = 5_ms;
  scenario::TopologySpec spec = scenario::WanPath::make_spec(config);
  spec.links.at(0).a_dev.qdisc = GetParam().qdisc;
  const auto flow = scenario::ScenarioBuilder{spec}.build(
      GetParam().rss ? scenario::make_rss_factory() : scenario::make_reno_factory());
  flow->start_flow(0, Time::zero());
  flow->run_until(10_s);  // warm-up: slow start, then several sawtooth cycles
  const web100::Mib& mib = flow->sender(0).mib();
  const net::QueueStats& nic = flow->device("sender", "receiver").ifq().stats();
  const std::uint64_t warm_acked = mib.ThruBytesAcked;
  const std::uint64_t warm_rejected = nic.dropped + nic.ce_marked;
  const std::size_t warm_slots = flow->simulation().scheduler().arena_slots();

  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
  {
    const alloc_guard::AllocScope scope;
    flow->run_until(15_s);
    allocations = scope.allocations();
    bytes = scope.bytes();
  }
  EXPECT_EQ(allocations, 0u) << "a warm flow allocated " << allocations << " times (" << bytes
                             << " bytes) in 5 simulated seconds";
  EXPECT_GT(mib.ThruBytesAcked, warm_acked + 10'000'000u) << "the flow stalled";
  if (!GetParam().rss || GetParam().qdisc == scenario::QueueDiscipline::kRed) {
    EXPECT_GT(nic.dropped + nic.ce_marked, warm_rejected) << "the NIC never pushed back";
  }
  EXPECT_EQ(flow->simulation().scheduler().arena_slots(), warm_slots);
}

INSTANTIATE_TEST_SUITE_P(
    Flows, AllocGuardFlow,
    ::testing::Values(FlowCase{"reno_droptail", false, scenario::QueueDiscipline::kDropTail},
                      FlowCase{"rss_droptail", true, scenario::QueueDiscipline::kDropTail},
                      FlowCase{"reno_red", false, scenario::QueueDiscipline::kRed},
                      FlowCase{"rss_red", true, scenario::QueueDiscipline::kRed},
                      FlowCase{"reno_codel", false, scenario::QueueDiscipline::kCodel},
                      FlowCase{"rss_codel", true, scenario::QueueDiscipline::kCodel}),
    [](const auto& info) { return std::string{info.param.name}; });

/// The same warm flow with Web100 polling on, every 10 ms. Each poll
/// flattens the MIB into a fixed array and appends one sample to each of
/// the agent's 21 series, which were resolved at the first poll. A series
/// still doubles now and then, so the measured window is one in which none
/// does: it starts once every series has room for 5 s of polls, and their
/// capacities are checked unchanged at its end. Zero allocations there
/// means polling allocates nothing else.
TEST(AllocGuardFlowPolling, WarmWanPathFlowWithPollingIsAllocFree) {
  scenario::WanPath::Config config;
  config.path.one_way_delay = 5_ms;
  config.web100_poll_period = 10_ms;
  const scenario::TopologySpec spec = scenario::WanPath::make_spec(config);
  ASSERT_TRUE(spec.flows.at(0).web100);
  const auto flow = scenario::ScenarioBuilder{spec}.build(scenario::make_reno_factory());
  flow->start_flow(0, Time::zero());
  const web100::PollingAgent& agent = *flow->agent(0);
  const auto room = [&agent] {
    std::size_t least = SIZE_MAX;
    for (const auto& name : agent.variable_names()) {
      const auto& series = agent.series(name);
      least = std::min(least, series.capacity() - series.size());
    }
    return least;
  };
  flow->run_until(10_s);  // warm-up: slow start, then several sawtooth cycles
  while (room() < 501) flow->run_until(flow->simulation().now() + 10_ms);
  std::vector<std::size_t> capacities;
  for (const auto& name : agent.variable_names())
    capacities.push_back(agent.series(name).capacity());
  const std::size_t warm_polls = agent.polls_taken();
  const std::uint64_t warm_stalls = flow->sender(0).mib().SendStall;

  std::uint64_t allocations = 0;
  {
    const alloc_guard::AllocScope scope;
    flow->run_until(flow->simulation().now() + 5_s);
    allocations = scope.allocations();
  }
  EXPECT_EQ(allocations, 0u) << "a warm polled flow allocated " << allocations << " times";
  EXPECT_EQ(agent.polls_taken(), warm_polls + 500);
  EXPECT_GT(flow->sender(0).mib().SendStall, warm_stalls) << "the flow never stalled";
  for (std::size_t i = 0; i < capacities.size(); ++i)
    EXPECT_EQ(agent.series(agent.variable_names()[i]).capacity(), capacities[i]);
}

/// CoDel's control law sheds head packets at dequeue. With a sender that
/// outruns the drain, each cycle builds a standing queue, enters the
/// dropping state and drops; once the ring is warm none of it allocates.
TEST(AllocGuard, WarmCodelQueueWithLawDropsIsAllocFree) {
  Simulation s{1};
  net::CodelQueue queue{net::CodelQueue::Options{.capacity_packets = 200}, s};
  net::Packet packet;
  packet.payload_bytes = 1460;
  std::uint64_t dequeued = 0;
  auto round = [&] {
    for (int i = 0; i < 20'000; ++i) {
      // Two arrivals per departure, 1 ms apart: the sojourn passes target
      // within a few cycles and stays above it.
      (void)queue.enqueue(packet);
      (void)queue.enqueue(packet);
      s.run_until(s.now() + 1_ms);
      if (queue.dequeue()) ++dequeued;
    }
  };
  round();  // warm-up: the ring reaches the queue's capacity
  const std::uint64_t warm_law_drops = queue.law_drops();
  const std::uint64_t warm_dequeued = dequeued;

  std::uint64_t allocations = 0;
  {
    const alloc_guard::AllocScope scope;
    round();
    allocations = scope.allocations();
  }
  EXPECT_EQ(allocations, 0u) << "a warm CoDel queue allocated " << allocations << " times";
  EXPECT_GT(queue.law_drops(), warm_law_drops) << "the control law never dropped";
  EXPECT_GT(dequeued, warm_dequeued);
}

INSTANTIATE_TEST_SUITE_P(Backends, AllocGuardBackends,
                         ::testing::Values(QueueBackend::kBinaryHeap,
                                           QueueBackend::kCalendarQueue),
                         [](const auto& info) {
                           return info.param == QueueBackend::kBinaryHeap ? "heap" : "calendar";
                         });

}  // namespace
}  // namespace rss::sim
