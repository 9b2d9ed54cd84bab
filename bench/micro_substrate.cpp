// MICRO — microbenchmarks of the simulation substrate: event-scheduler
// throughput on both queue backends, queue operations, PID controller
// updates and a full end-to-end simulation (events per wall-second). These
// bound how large a parameter sweep the harness can afford, and they are
// where backend decisions (see
// docs/architecture.md "Choosing a QueueBackend") get their numbers.
//
// Two entry points:
//   (default)   google-benchmark CLI — full microbenchmark suite.
//   --smoke     CI mode: run the packet-dense WAN scenario, the 3-hop
//               parking-lot scenario and a scheduler churn loop on both
//               backends, the partitioned and fluid legs and a spec-sweep
//               expansion for a few seconds each and write
//               BENCH_scheduler.json (events/sec per scenario and backend,
//               plus simulated seconds per wall second for every
//               simulation leg), so the perf trajectory is recorded per
//               commit.
//               Options: --out <path> (default BENCH_scheduler.json),
//               --seconds <n> (approx budget per backend, default 2).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "control/pid.hpp"
#include "net/queue.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "scenario/spec_io.hpp"
#include "scenario/wan_path.hpp"
#include "sim/scheduler.hpp"

using namespace rss;
using namespace rss::sim::literals;

namespace {

sim::QueueBackend backend_arg(std::int64_t v) {
  return v == 0 ? sim::QueueBackend::kBinaryHeap : sim::QueueBackend::kCalendarQueue;
}

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto backend = backend_arg(state.range(1));
  for (auto _ : state) {
    sim::Scheduler s{backend};
    for (std::size_t i = 0; i < n; ++i) {
      s.schedule_at(sim::Time::nanoseconds(static_cast<std::int64_t>(i % 1000)), [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerScheduleRun)
    ->ArgsProduct({{1000, 100000}, {0, 1}})
    ->ArgNames({"n", "calendar"});

void BM_SchedulerCancelHeavy(benchmark::State& state) {
  // The TCP RTO pattern: schedule, cancel, reschedule. With the slot arena
  // this is also the allocation-free path the ISSUE targets — the arena
  // must stay at one slot for the whole loop.
  const auto backend = backend_arg(state.range(0));
  for (auto _ : state) {
    sim::Scheduler s{backend};
    sim::EventId pending{};
    for (int i = 0; i < 10000; ++i) {
      if (pending.valid()) s.cancel(pending);
      pending = s.schedule_at(sim::Time::nanoseconds(i + 1), [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerCancelHeavy)->Arg(0)->Arg(1)->ArgName("calendar");

void BM_DropTailQueueEnqueueDequeue(benchmark::State& state) {
  net::DropTailQueue q{1024};
  net::Packet p;
  p.payload_bytes = 1460;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.enqueue(p));
    benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DropTailQueueEnqueueDequeue);

void BM_RedQueueEnqueueDequeue(benchmark::State& state) {
  net::RedQueue q{net::RedQueue::Options{}, sim::Rng{1}};
  net::Packet p;
  p.payload_bytes = 1460;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.enqueue(p));
    benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RedQueueEnqueueDequeue);

void BM_PidUpdate(benchmark::State& state) {
  control::PidController pid{control::PidGains{0.12, 0.3, 0.1},
                             control::OutputLimits{-1.0, 1.0}};
  double e = 10.0;
  for (auto _ : state) {
    e = -e;
    benchmark::DoNotOptimize(pid.update(e, 1e-3));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PidUpdate);

scenario::WanPath::Config packet_dense_config(sim::QueueBackend backend) {
  scenario::WanPath::Config cfg;
  cfg.enable_web100 = false;
  cfg.execution.backend = backend;
  return cfg;
}

void BM_FullWanSimulation(benchmark::State& state) {
  // End-to-end cost of one simulated second of the canonical path under
  // Restricted Slow-Start (~8.5k data packets + ACKs + timers) — the
  // packet-dense scenario backend decisions are made on.
  const auto backend = backend_arg(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    scenario::WanPath wan{packet_dense_config(backend), scenario::make_rss_factory()};
    wan.run_bulk_transfer(sim::Time::zero(), 1_s);
    events += wan.simulation().scheduler().events_executed();
    benchmark::DoNotOptimize(wan.sender().bytes_acked());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullWanSimulation)->Arg(0)->Arg(1)->ArgName("calendar")->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --smoke: the CI leg. No google-benchmark machinery — plain wall-clock
// loops whose results land in a small JSON file the workflow uploads.
// ---------------------------------------------------------------------------

/// One leg's totals. A simulation leg also counts the simulated seconds it
/// ran: simulated seconds per wall second is its headline rate, which an
/// engine change that removes events (and so lowers events/sec while
/// running faster) cannot misread. Legs that simulate nothing (scheduler
/// churn, spec sweep) leave it at 0 and report events/sec only.
struct SmokeResult {
  std::uint64_t events{0};
  double seconds{0.0};
  double sim_seconds{0.0};
  [[nodiscard]] double events_per_sec() const {
    return seconds > 0 ? static_cast<double>(events) / seconds : 0.0;
  }
  [[nodiscard]] double sim_seconds_per_sec() const {
    return seconds > 0 ? sim_seconds / seconds : 0.0;
  }
};

/// Repeat 1-simulated-second packet-dense WAN runs until the wall budget is
/// spent. Simulated seconds per wall second here is the headline number:
/// the cost of the packet path — deliveries, serializations, ACK timers —
/// that production sweeps pay for.
SmokeResult smoke_wan(sim::QueueBackend backend, double budget_seconds) {
  SmokeResult r;
  const auto t0 = std::chrono::steady_clock::now();
  while (r.seconds < budget_seconds) {
    scenario::WanPath wan{packet_dense_config(backend), scenario::make_rss_factory()};
    wan.run_bulk_transfer(sim::Time::zero(), 1_s);
    r.events += wan.simulation().scheduler().events_executed();
    r.sim_seconds += 1.0;
    r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  return r;
}

/// Multi-bottleneck forwarding mix: 1 simulated second of the 3-hop
/// parking lot (end-to-end flow + per-hop cross traffic, heterogeneous
/// RTTs) built through ScenarioBuilder. Adds transit forwarding and
/// several contended router queues to the event mix — the load profile of
/// the fairness-study sweeps, which the WAN scenario doesn't exercise.
SmokeResult smoke_parkinglot(sim::QueueBackend backend, double budget_seconds) {
  SmokeResult r;
  const auto t0 = std::chrono::steady_clock::now();
  while (r.seconds < budget_seconds) {
    scenario::ParkingLot::Config cfg;
    cfg.execution.backend = backend;
    cfg.access_rate = net::DataRate::mbps(100);
    scenario::ParkingLot lot{cfg, scenario::uniform_cc(scenario::make_rss_factory())};
    lot.start_all(sim::Time::zero());
    lot.simulation().run_until(1_s);
    r.events += lot.simulation().scheduler().events_executed();
    r.sim_seconds += 1.0;
    r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  return r;
}

/// The partitioned-execution leg: an N-dumbbell ScaleMesh run under the
/// unified ExecutionPolicy, once with "partitions": 1 and once with
/// "partitions": 4 (threads auto — worker threads where the hardware has
/// them, the inline single-worker round loop where it doesn't). The two
/// runs execute the identical spec and the identical event count (parity
/// is a tested invariant), so events/sec isolates what partitioning buys:
/// four small per-partition queues instead of one large one, window-sized
/// working sets, and — on multicore — actual parallelism. bench_scale
/// regressions therefore catch both engine slowdowns and
/// partitioning-quality losses. `backend` is the spec's execution.backend
/// (unset = the heap).
SmokeResult smoke_scale(std::size_t partitions, double budget_seconds,
                        std::optional<sim::QueueBackend> backend = std::nullopt) {
  SmokeResult r;
  const auto t0 = std::chrono::steady_clock::now();
  while (r.seconds < budget_seconds) {
    scenario::ScaleMesh::Config cfg;
    cfg.segments = 4;
    cfg.flows_per_segment = 25;
    cfg.cross_flows_per_segment = 5;
    scenario::TopologySpec spec = scenario::ScaleMesh::make_spec(cfg);
    spec.execution.partitions = partitions;
    spec.execution.backend = backend;
    auto s = scenario::ScenarioBuilder{spec}.build(scenario::make_reno_factory());
    for (std::size_t i = 0; i < spec.flows.size(); ++i)
      s->start_flow(i, sim::Time::zero());
    s->run_until(1_s);
    r.events += s->events_executed();
    r.sim_seconds += 1.0;
    r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  return r;
}

/// The hybrid-engine leg: the 3-hop parking lot under heavy per-hop cross
/// traffic (8 Reno aggregates per hop), once all-packet and once with the
/// cross traffic fluidized into rate-ODE aggregates. Both variants simulate
/// the same horizon, so the wall-time-per-simulated-second ratio printed by
/// run_smoke is the speedup fluidization buys on cross-traffic studies;
/// each variant's simulated seconds per wall second is its gated rate.
SmokeResult smoke_parkinglot_fluid(bool fluid, double budget_seconds, double* wall_per_sim) {
  SmokeResult r;
  constexpr std::int64_t kHorizonSeconds = 20;
  const auto t0 = std::chrono::steady_clock::now();
  while (r.seconds < budget_seconds) {
    scenario::ParkingLot::Config cfg;
    cfg.cross_flows_per_hop = 8;
    cfg.access_rate = net::DataRate::mbps(100);
    cfg.fluid_cross = fluid;
    scenario::ParkingLot lot{cfg, scenario::uniform_cc(scenario::make_reno_factory())};
    lot.start_all(sim::Time::zero());
    lot.simulation().run_until(sim::Time::seconds(kHorizonSeconds));
    r.events += lot.simulation().scheduler().events_executed();
    r.sim_seconds += static_cast<double>(kHorizonSeconds);
    r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  if (wall_per_sim != nullptr && r.sim_seconds > 0) *wall_per_sim = r.seconds / r.sim_seconds;
  return r;
}

/// Partitioned fluid integration: the ScaleMesh preset shape with every
/// segment-local flow fluidized (trunk cross traffic stays packet), at 1
/// and 4 partitions. Exercises the per-partition FluidDriver tick on top
/// of the partitioned engine — regressions here catch fluid-tick overhead
/// and partition-local integration slowdowns that the all-packet
/// scale_mesh leg can't see.
SmokeResult smoke_scale_fluid(std::size_t partitions, double budget_seconds) {
  SmokeResult r;
  const auto t0 = std::chrono::steady_clock::now();
  while (r.seconds < budget_seconds) {
    scenario::ScaleMesh::Config cfg;
    cfg.segments = 4;
    cfg.flows_per_segment = 25;
    cfg.cross_flows_per_segment = 5;
    cfg.fluid_local = true;
    scenario::TopologySpec spec = scenario::ScaleMesh::make_spec(cfg);
    spec.execution.partitions = partitions;
    auto s = scenario::ScenarioBuilder{spec}.build(scenario::make_reno_factory());
    for (std::size_t i = 0; i < spec.flows.size(); ++i)
      s->start_flow(i, sim::Time::zero());
    s->run_until(1_s);
    r.events += s->events_executed();
    r.sim_seconds += 1.0;
    r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  return r;
}

/// The spec set-up leg: parse plus expand of a 64-point grid (4 IFQ sizes x
/// 4 seeds x 4 congestion controls) over the 10,028-flow ScaleMesh spec
/// with staggered flow starts, the shape of rssbench's spec_setup workload.
/// "events" counts expanded points, so events/sec is sweep points per
/// second.
SmokeResult smoke_spec_sweep(double budget_seconds) {
  scenario::ScaleMesh::Config cfg;
  cfg.segments = 8;
  cfg.flows_per_segment = 1250;
  cfg.cross_flows_per_segment = 4;
  scenario::spec::ScenarioSpec spec;
  spec.name = "spec_sweep";
  spec.topology = scenario::ScaleMesh::make_spec(cfg);
  for (std::size_t i = 0; i < spec.topology.flows.size(); ++i) {
    spec.topology.flows[i].start =
        sim::Time::nanoseconds(static_cast<std::int64_t>(i * 7'919 % 50'000'000));
  }
  spec.flow_cc.assign(spec.topology.flows.size(), "reno");
  std::size_t bottleneck = 0;
  while (spec.topology.links.at(bottleneck).a_dev.name != "seg0/bottleneck") ++bottleneck;
  const auto values = [](std::string_view json) { return scenario::spec::json_parse(json).array; };
  spec.sweep.axes.push_back({"links[" + std::to_string(bottleneck) + "].a_dev.ifq_packets",
                             values("[50, 100, 200, 400]")});
  spec.sweep.axes.push_back({"seed", values("[1, 2, 3, 4]")});
  spec.sweep.axes.push_back(
      {"flows[0].cc", values(R"(["reno", "restricted-slow-start", "cubic", "highspeed"])")});
  const std::string text = scenario::spec::serialize_scenario_spec(spec);

  SmokeResult r;
  const auto t0 = std::chrono::steady_clock::now();
  while (r.seconds < budget_seconds) {
    r.events += scenario::spec::expand_scenario_spec(text).size();
    r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  return r;
}

/// A persistent slot that fires 32 times, re-arming itself 120 ns after
/// each firing: a NIC serializing a burst of back-to-back packets.
struct BurstOwner {
  static constexpr int kFirings = 32;
  sim::Scheduler* s{nullptr};
  sim::EventId slot;
  int left{0};

  static void fire(void* self) {
    auto* owner = static_cast<BurstOwner*>(self);
    if (--owner->left == 0) return;
    sim::Scheduler& s = *owner->s;
    s.arm_persistent(owner->slot, 0, s.draw_rank(0), s.now(),
                     s.now() + sim::Time::nanoseconds(120));
  }
};

/// Pure scheduler churn: the schedule/cancel/reschedule storm of the
/// per-ACK RTO path, plus 313 self-re-arming bursts of 32 firings, with no
/// protocol work diluting it: 10,017 events per loop.
SmokeResult smoke_churn(sim::QueueBackend backend, double budget_seconds) {
  SmokeResult r;
  std::vector<BurstOwner> bursts(20'000 / 64 + 1);
  const auto t0 = std::chrono::steady_clock::now();
  while (r.seconds < budget_seconds) {
    sim::Scheduler s{backend};
    sim::EventId rto{};
    for (int i = 0; i < 20'000; ++i) {
      if (rto.valid()) s.cancel(rto);
      rto = s.schedule_at(sim::Time::nanoseconds(i * 7 + 1), [] {});
      if (i % 64 == 0) {
        BurstOwner& burst = bursts[static_cast<std::size_t>(i / 64)];
        burst = BurstOwner{&s, s.add_persistent(&BurstOwner::fire, &burst), BurstOwner::kFirings};
        s.arm_persistent(burst.slot, 0, s.draw_rank(0), s.now(),
                         sim::Time::nanoseconds(i * 7 + 2));
      }
    }
    s.run();
    r.events += s.events_executed();
    r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  return r;
}

void write_json_entry(std::ostream& os, std::string_view scenario, std::string_view backend,
                      const SmokeResult& res, bool trailing_comma) {
  os << "    {\"scenario\": \"" << scenario << "\", \"backend\": \"" << backend
     << "\", \"events\": " << res.events << ", \"wall_seconds\": " << res.seconds
     << ", \"events_per_sec\": " << static_cast<std::uint64_t>(res.events_per_sec());
  if (res.sim_seconds > 0) {
    os << ", \"sim_seconds\": " << res.sim_seconds
       << ", \"sim_seconds_per_sec\": " << res.sim_seconds_per_sec();
  }
  os << "}" << (trailing_comma ? "," : "") << "\n";
}

int run_smoke(const std::vector<std::string>& args) {
  std::string out_path = "BENCH_scheduler.json";
  double budget = 2.0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out" && i + 1 < args.size()) out_path = args[++i];
    if (args[i] == "--seconds" && i + 1 < args.size()) budget = std::stod(args[++i]);
  }

  struct Row {
    std::string_view scenario;
    std::string_view backend;
    SmokeResult result;
  };
  std::vector<Row> rows;
  for (const auto backend : {sim::QueueBackend::kBinaryHeap, sim::QueueBackend::kCalendarQueue}) {
    const std::string_view name =
        backend == sim::QueueBackend::kBinaryHeap ? "binary_heap" : "calendar_queue";
    rows.push_back({"wan_path_packet_dense", name, smoke_wan(backend, budget)});
    rows.push_back({"parking_lot_3hop", name, smoke_parkinglot(backend, budget)});
    rows.push_back({"scheduler_churn", name, smoke_churn(backend, budget)});
  }
  // bench_scale: the partitioned engine on the ScaleMesh preset shape. The
  // "backend" column carries the partition count; every run is on the heap.
  rows.push_back({"scale_mesh", "partitions_1", smoke_scale(1, budget)});
  rows.push_back({"scale_mesh", "partitions_4", smoke_scale(4, budget)});
  const double serial = rows[rows.size() - 2].result.events_per_sec();
  const double parted = rows.back().result.events_per_sec();
  if (serial > 0) {
    std::cout << "scale_mesh partitions_4 / partitions_1 speedup: "
              << parted / serial << "x\n";
  }
  // The heap pinned through execution.backend: the same run as
  // partitions_1, which leaves the backend unset.
  rows.push_back({"scale_mesh", "partitions_1_heap",
                  smoke_scale(1, budget, sim::QueueBackend::kBinaryHeap)});
  // bench_fluid: the hybrid fluid/packet engine. The headline number is the
  // wall-time ratio — how much faster the same simulated horizon completes
  // once the heavy cross traffic is fluidized.
  double packet_wall_per_sim = 0.0;
  double fluid_wall_per_sim = 0.0;
  rows.push_back({"parking_lot_3hop_fluid", "packet_cross",
                  smoke_parkinglot_fluid(false, budget, &packet_wall_per_sim)});
  rows.push_back({"parking_lot_3hop_fluid", "fluid_cross",
                  smoke_parkinglot_fluid(true, budget, &fluid_wall_per_sim)});
  if (fluid_wall_per_sim > 0) {
    std::cout << "parking_lot_3hop_fluid packet_cross / fluid_cross wall-time speedup: "
              << packet_wall_per_sim / fluid_wall_per_sim << "x\n";
  }
  rows.push_back({"scale_fluid", "partitions_1", smoke_scale_fluid(1, budget)});
  rows.push_back({"scale_fluid", "partitions_4", smoke_scale_fluid(4, budget)});
  // bench_spec: sweep expansion, the set-up cost of every spec-driven study.
  rows.push_back({"spec_sweep", "expand_64pt", smoke_spec_sweep(budget)});

  std::ofstream out{out_path};
  if (!out) {
    std::cerr << "bench_micro_substrate: cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n  \"benchmark\": \"scheduler_smoke\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    write_json_entry(out, rows[i].scenario, rows[i].backend, rows[i].result,
                     i + 1 < rows.size());
  }
  out << "  ]\n}\n";

  for (const auto& row : rows) {
    std::cout << row.scenario << " / " << row.backend << ": "
              << static_cast<std::uint64_t>(row.result.events_per_sec()) << " events/sec ("
              << row.result.events << " events in " << row.result.seconds << "s)";
    if (row.result.sim_seconds > 0)
      std::cout << ", " << row.result.sim_seconds_per_sec() << " simulated s/s";
    std::cout << "\n";
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view{argv[i]} == "--smoke") {
      smoke = true;
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if (smoke) return run_smoke(args);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
