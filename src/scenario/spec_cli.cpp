#include "scenario/spec_cli.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>

#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/dumbbell.hpp"
#include "scenario/presets.hpp"
#include "scenario/sweep.hpp"
#include "scenario/wan_path.hpp"
#include "web100/mib.hpp"

namespace rss::scenario::spec {

FlowCcFactory make_flow_cc_factory(const ScenarioSpec& spec) {
  auto factories = std::make_shared<std::vector<CcFactory>>();
  factories->reserve(spec.topology.flows.size());
  for (std::size_t i = 0; i < spec.topology.flows.size(); ++i) {
    const std::string name = i < spec.flow_cc.size() ? spec.flow_cc[i] : "reno";
    factories->push_back(factory_by_name(name));
  }
  return [factories](std::size_t flow) { return factories->at(flow)(); };
}

std::unique_ptr<Scenario> build_scenario(const ScenarioSpec& spec) {
  check_scenario_spec(spec);
  auto scenario = ScenarioBuilder{spec.topology}.build(make_flow_cc_factory(spec));
  for (std::size_t i = 0; i < spec.topology.flows.size(); ++i) {
    if (!spec.topology.flows[i].start) scenario->start_flow(i, sim::Time::zero());
  }
  return scenario;
}

// --- run engine -----------------------------------------------------------

namespace {

struct FlowCounters {
  std::uint64_t bytes_acked{0};
  std::uint64_t send_stalls{0};
  std::uint64_t timeouts{0};
  std::uint64_t pkts_retrans{0};
};

struct FlowResult {
  double goodput_mbps{0};
  std::uint64_t send_stalls{0};
  std::uint64_t timeouts{0};
  std::uint64_t pkts_retrans{0};
};

[[nodiscard]] FlowCounters counters_of(const tcp::TcpSender& sender) {
  const web100::Mib& mib = sender.mib();
  return {mib.ThruBytesAcked, mib.SendStall, mib.Timeouts, mib.PktsRetrans};
}

[[nodiscard]] std::vector<FlowResult> run_point(const ScenarioSpec& spec) {
  auto scenario = build_scenario(spec);

  // Measurement is windowed: TcpSender::goodput_mbps averages the whole
  // transfer, so a nonzero measure_start needs counters snapshotted *at*
  // measure_start (mid-run, via a scheduled event) and deltas taken
  // against the end state.
  const std::size_t flow_count = spec.topology.flows.size();
  std::vector<FlowCounters> at_start(flow_count);
  // Fluid aggregates have no MIB; their window delta is delivered bytes.
  std::vector<double> fluid_at_start(flow_count, 0.0);
  if (!spec.run.measure_start.is_zero()) {
    scenario->simulation().at(spec.run.measure_start, [&] {
      for (std::size_t i = 0; i < flow_count; ++i) {
        if (scenario->is_fluid(i)) {
          fluid_at_start[i] = scenario->fluid_sink(i).delivered_bytes();
        } else {
          at_start[i] = counters_of(scenario->sender(i));
        }
      }
    });
  }
  scenario->run_until(spec.run.duration);

  const double window_s = (spec.run.duration - spec.run.measure_start).to_seconds();
  std::vector<FlowResult> flows;
  flows.reserve(flow_count);
  for (std::size_t i = 0; i < flow_count; ++i) {
    if (scenario->is_fluid(i)) {
      FlowResult r;
      const double delivered = scenario->fluid_sink(i).delivered_bytes() - fluid_at_start[i];
      r.goodput_mbps = window_s > 0 ? delivered * 8.0 / window_s / 1e6 : 0.0;
      flows.push_back(r);
      continue;
    }
    const FlowCounters end = counters_of(scenario->sender(i));
    FlowResult r;
    r.goodput_mbps = window_s > 0
                         ? static_cast<double>(end.bytes_acked - at_start[i].bytes_acked) *
                               8.0 / window_s / 1e6
                         : 0.0;
    r.send_stalls = end.send_stalls - at_start[i].send_stalls;
    r.timeouts = end.timeouts - at_start[i].timeouts;
    r.pkts_retrans = end.pkts_retrans - at_start[i].pkts_retrans;
    flows.push_back(r);
  }
  return flows;
}

}  // namespace

metrics::Table run_spec_document(const JsonValue& document, const ExecFlags& exec) {
  std::vector<SweepPoint> points = expand_scenario_spec(document);

  std::vector<std::string> columns{"point"};
  for (const auto& [field, value] : points.front().assignment) columns.push_back(field);
  for (const char* c : {"flow", "src", "dst", "cc", "goodput_mbps", "send_stalls",
                        "timeouts", "pkts_retrans"})
    columns.emplace_back(c);

  // One thread budget for the whole run: sweep workers come off it first,
  // then each partitioned point that doesn't pin its own thread count gets
  // an equal share of what remains — nested parallelism (sweep x engine)
  // never oversubscribes.
  for (auto& point : points) exec.apply(point.spec.topology.execution);
  const ExecutionPolicy run_policy{.threads = exec.jobs};
  const std::size_t budget = run_policy.resolve_threads(std::numeric_limits<std::size_t>::max());
  const std::size_t workers = run_policy.resolve_threads(points.size());
  for (auto& point : points) {
    ExecutionPolicy& policy = point.spec.topology.execution;
    if (policy.partitioned() && policy.threads == 0)
      policy.threads = std::max<std::size_t>(1, budget / workers);
  }

  std::vector<std::vector<FlowResult>> results(points.size());
  parallel_sweep(
      points.size(), [&](std::size_t p) { results[p] = run_point(points[p].spec); },
      workers);

  metrics::Table table{columns};
  for (std::size_t p = 0; p < points.size(); ++p) {
    const ScenarioSpec& spec = points[p].spec;
    for (std::size_t f = 0; f < results[p].size(); ++f) {
      std::vector<metrics::Cell> row;
      row.reserve(columns.size());
      row.emplace_back(static_cast<unsigned long long>(p));
      for (const auto& [field, value] : points[p].assignment) row.emplace_back(value);
      row.emplace_back(static_cast<unsigned long long>(f));
      row.emplace_back(spec.topology.flows[f].src);
      row.emplace_back(spec.topology.flows[f].dst);
      row.emplace_back(f < spec.flow_cc.size() ? spec.flow_cc[f] : "reno");
      const FlowResult& r = results[p][f];
      row.emplace_back(r.goodput_mbps);
      row.emplace_back(static_cast<unsigned long long>(r.send_stalls));
      row.emplace_back(static_cast<unsigned long long>(r.timeouts));
      row.emplace_back(static_cast<unsigned long long>(r.pkts_retrans));
      table.add_row(std::move(row));
    }
  }
  return table;
}

metrics::Table run_spec_text(std::string_view json_text, const ExecFlags& exec) {
  return run_spec_document(json_parse(json_text), exec);
}

metrics::Table run_spec_file(const std::string& path, const ExecFlags& exec) {
  return run_spec_text(read_spec_file(path), exec);
}

// --- presets as specs -----------------------------------------------------

std::vector<std::string> preset_names() {
  return {"wanpath", "dumbbell", "parkinglot", "chain", "scale", "scale_fluid"};
}

namespace {

/// preset_names() as "a, b, c", for help and error texts.
[[nodiscard]] std::string preset_list() {
  std::string out;
  for (const auto& name : preset_names()) out += (out.empty() ? "" : ", ") + name;
  return out;
}

}  // namespace

ScenarioSpec preset_spec(const std::string& name) {
  ScenarioSpec spec;
  spec.name = name;
  if (name == "wanpath") {
    spec.topology = WanPath::make_spec(WanPath::Config{});
  } else if (name == "dumbbell") {
    spec.topology = Dumbbell::make_spec(Dumbbell::Config{});
  } else if (name == "parkinglot") {
    spec.topology = ParkingLot::make_spec(ParkingLot::Config{});
  } else if (name == "chain") {
    spec.topology = MultiBottleneckChain::make_spec(MultiBottleneckChain::Config{});
  } else if (name == "scale") {
    // The reduced bench configuration: the full ScaleMesh default is a
    // 100k-flow workload, far too heavy for an emittable/round-trippable
    // preset. Partitioned by default — the round-trip fingerprint therefore
    // also exercises build-and-run through the partitioned engine.
    ScaleMesh::Config cfg;
    cfg.segments = 4;
    cfg.flows_per_segment = 8;
    cfg.cross_flows_per_segment = 2;
    cfg.execution.partitions = 4;
    spec.topology = ScaleMesh::make_spec(cfg);
  } else if (name == "scale_fluid") {
    // The hybrid configuration of the scale preset: segment-local flows are
    // fluid aggregates (trunk cross traffic stays packet), still across 4
    // partitions. Round-tripping it pins the fluid flow-spec serialization,
    // and running it under --jobs exercises partition-local fluid ticks on
    // the threaded engine.
    ScaleMesh::Config cfg;
    cfg.segments = 4;
    cfg.flows_per_segment = 8;
    cfg.cross_flows_per_segment = 2;
    cfg.fluid_local = true;
    cfg.execution.partitions = 4;
    spec.topology = ScaleMesh::make_spec(cfg);
  } else {
    throw std::invalid_argument("unknown preset: " + name + " (known: " + preset_list() + ")");
  }
  spec.flow_cc.assign(spec.topology.flows.size(), "reno");
  return spec;
}

// --- CLI ------------------------------------------------------------------

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <command> [options]\n"
               "\n"
               "commands:\n"
               "  --run <spec.json>        expand the spec's sweep, build and run every\n"
               "                           point, write the result table as CSV\n"
               "  --validate <file...>     parse + topology-check spec files (and every\n"
               "                           sweep point); exit 0 iff all are valid\n"
               "  --emit-preset <name>     dump a C++ topology preset as a spec file\n"
               "                           (%s)\n"
               "  --list-presets           list the emittable presets\n"
               "  --roundtrip              self-check: every preset emits, re-parses and\n"
               "                           re-serializes byte-identically, and the\n"
               "                           re-parsed spec rebuilds an identical scenario\n"
               "\n"
               "options:\n"
               "  --out <path>             write CSV/spec output here (default: stdout)\n"
               "%s",
               argv0, preset_list().c_str(), ExecFlags::help());
  return 2;
}

[[nodiscard]] int write_output(const std::string& out_path, const std::string& content) {
  if (out_path.empty()) {
    std::cout << content;
    return 0;
  }
  std::ofstream out{out_path};
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << content;
  return 0;
}

int cmd_run(const std::string& path, const std::string& out_path, const ExecFlags& exec) {
  const metrics::Table table = run_spec_file(path, exec);
  const int rc = write_output(out_path, table.to_csv());
  if (rc == 0 && !out_path.empty())
    std::printf("wrote %s (%zu rows)\n", out_path.c_str(), table.row_count());
  return rc;
}

int cmd_validate(const std::vector<std::string>& files) {
  if (files.empty()) {
    std::fprintf(stderr, "--validate needs at least one spec file\n");
    return 2;
  }
  std::size_t failures = 0;
  for (const auto& path : files) {
    try {
      const std::vector<SweepPoint> points = expand_scenario_spec(read_spec_file(path));
      for (const auto& point : points) check_scenario_spec(point.spec);
      const ScenarioSpec& first = points.front().spec;
      std::printf("%-40s OK (%zu point%s, %zu nodes, %zu links, %zu flows)\n", path.c_str(),
                  points.size(), points.size() == 1 ? "" : "s", first.topology.nodes.size(),
                  first.topology.links.size(), first.topology.flows.size());
    } catch (const std::exception& ex) {
      std::printf("%-40s FAIL\n    %s\n", path.c_str(), ex.what());
      ++failures;
    }
  }
  if (failures) std::printf("%zu/%zu spec files failed validation.\n", failures, files.size());
  return failures ? 1 : 0;
}

int cmd_emit_preset(const std::string& name, const std::string& out_path) {
  return write_output(out_path, serialize_scenario_spec(preset_spec(name)));
}

int cmd_list_presets() {
  for (const auto& name : preset_names()) std::printf("%s\n", name.c_str());
  return 0;
}

/// Everything observable a short run produces, for exact comparison.
[[nodiscard]] std::vector<std::uint64_t> fingerprint(const ScenarioSpec& spec) {
  auto scenario = build_scenario(spec);
  scenario->run_until(sim::Time::seconds(2));
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < spec.topology.flows.size(); ++i) {
    if (scenario->is_fluid(i)) {
      // Fluid flows have no MIB; the delivered-byte ledger (exact in
      // double for these magnitudes) plays the same role.
      out.push_back(static_cast<std::uint64_t>(scenario->fluid_sink(i).delivered_bytes()));
      out.push_back(0);
      out.push_back(0);
      out.push_back(0);
      continue;
    }
    const web100::Mib& mib = scenario->sender(i).mib();
    out.push_back(mib.ThruBytesAcked);
    out.push_back(mib.PktsOut);
    out.push_back(mib.PktsRetrans);
    out.push_back(mib.SendStall);
  }
  return out;
}

int cmd_roundtrip() {
  std::size_t failures = 0;
  for (const auto& name : preset_names()) {
    const ScenarioSpec original = preset_spec(name);
    const std::string emitted = serialize_scenario_spec(original);
    ScenarioSpec reparsed;
    try {
      reparsed = parse_scenario_spec(emitted);
    } catch (const std::exception& ex) {
      std::printf("%-12s FAIL (emitted spec does not re-parse: %s)\n", name.c_str(), ex.what());
      ++failures;
      continue;
    }
    const std::string reemitted = serialize_scenario_spec(reparsed);
    if (reemitted != emitted) {
      std::printf("%-12s FAIL (serialize∘parse is not byte-stable)\n", name.c_str());
      ++failures;
      continue;
    }
    const std::vector<std::uint64_t> a = fingerprint(original);
    const std::vector<std::uint64_t> b = fingerprint(reparsed);
    if (a != b) {
      std::printf("%-12s FAIL (re-parsed spec builds a different scenario)\n", name.c_str());
      ++failures;
      continue;
    }
    std::printf("%-12s PASS (%zu bytes, %zu flows byte-identical after 2s)\n", name.c_str(),
                emitted.size(), original.topology.flows.size());
  }
  if (failures) {
    std::printf("%zu/%zu presets failed the spec round-trip.\n", failures,
                preset_names().size());
  } else {
    std::printf("all %zu presets round-trip byte-identically.\n", preset_names().size());
  }
  return failures ? 1 : 0;
}

}  // namespace

int scenario_main(int argc, char** argv) {
  enum class Command { kNone, kRun, kValidate, kEmitPreset, kListPresets, kRoundtrip };
  Command cmd = Command::kNone;
  std::string out_path;
  std::string run_path;
  std::string preset;
  ExecFlags exec;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    switch (exec.parse(argc, argv, i)) {
      case ExecFlags::Parse::kConsumed:
        continue;
      case ExecFlags::Parse::kError:
        return usage(argv[0]);
      case ExecFlags::Parse::kNotMine:
        break;
    }
    const std::string_view arg = argv[i];
    if (arg == "--run") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--run needs a spec file argument\n");
        return 2;
      }
      cmd = Command::kRun;
      run_path = argv[++i];
    } else if (arg == "--validate") {
      cmd = Command::kValidate;
    } else if (arg == "--emit-preset") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--emit-preset needs a preset name\n");
        return 2;
      }
      cmd = Command::kEmitPreset;
      preset = argv[++i];
    } else if (arg == "--list-presets") {
      cmd = Command::kListPresets;
    } else if (arg == "--roundtrip") {
      cmd = Command::kRoundtrip;
    } else if (arg == "--out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--out needs a path argument\n");
        return 2;
      }
      out_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return usage(argv[0]);
    } else {
      files.emplace_back(arg);
    }
  }

  try {
    switch (cmd) {
      case Command::kRun:
        return cmd_run(run_path, out_path, exec);
      case Command::kValidate:
        return cmd_validate(files);
      case Command::kEmitPreset:
        return cmd_emit_preset(preset, out_path);
      case Command::kListPresets:
        return cmd_list_presets();
      case Command::kRoundtrip:
        return cmd_roundtrip();
      case Command::kNone:
        return usage(argv[0]);
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 2;
  }
  return 2;
}

}  // namespace rss::scenario::spec
