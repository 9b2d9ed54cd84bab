// Spec-format parity: the four presets with a default Config (WanPath,
// Dumbbell, ParkingLot, MultiBottleneckChain) must survive the trip through
// the JSON file format — emit -> parse -> re-emit is byte-identical, and the
// re-parsed spec rebuilds a scenario whose observable behaviour (Web100
// counters, goodput) is byte-identical to one built from the in-memory
// spec. This is what locks `rss_scenario --emit-preset` output to the C++
// presets it mirrors. The two ScaleMesh presets ("scale", "scale_fluid")
// make the same trip in `rss_scenario --roundtrip`.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/builder.hpp"
#include "scenario/dumbbell.hpp"
#include "scenario/presets.hpp"
#include "scenario/spec_cli.hpp"
#include "scenario/spec_io.hpp"
#include "scenario/wan_path.hpp"
#include "web100/mib.hpp"

namespace rss::scenario::spec {
namespace {

using namespace rss::sim::literals;

/// Exact observable state of a 2-second run: per flow, the MIB counters
/// that summarize everything the flow did on the wire.
std::vector<std::uint64_t> fingerprint(const ScenarioSpec& spec) {
  auto scenario = build_scenario(spec);
  scenario->run_until(2_s);
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < spec.topology.flows.size(); ++i) {
    const web100::Mib& mib = scenario->sender(i).mib();
    out.push_back(mib.ThruBytesAcked);
    out.push_back(mib.PktsOut);
    out.push_back(mib.DataBytesOut);
    out.push_back(mib.PktsRetrans);
    out.push_back(mib.SendStall);
    out.push_back(mib.Timeouts);
    out.push_back(mib.AcksIn);
  }
  return out;
}

class PresetRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PresetRoundTripTest, SerializeParseSerializeIsByteStable) {
  const ScenarioSpec original = preset_spec(GetParam());
  const std::string emitted = serialize_scenario_spec(original);
  const ScenarioSpec reparsed = parse_scenario_spec(emitted);
  EXPECT_EQ(serialize_scenario_spec(reparsed), emitted);
}

TEST_P(PresetRoundTripTest, ReparsedSpecPreservesTheTopology) {
  const ScenarioSpec original = preset_spec(GetParam());
  const ScenarioSpec reparsed = parse_scenario_spec(serialize_scenario_spec(original));

  EXPECT_EQ(reparsed.topology.nodes, original.topology.nodes);
  EXPECT_EQ(reparsed.topology.seed, original.topology.seed);
  EXPECT_TRUE(reparsed.topology.execution == original.topology.execution);
  ASSERT_EQ(reparsed.topology.links.size(), original.topology.links.size());
  for (std::size_t i = 0; i < original.topology.links.size(); ++i) {
    const LinkSpec& a = original.topology.links[i];
    const LinkSpec& b = reparsed.topology.links[i];
    EXPECT_EQ(b.a, a.a);
    EXPECT_EQ(b.b, a.b);
    EXPECT_EQ(b.delay, a.delay);
    EXPECT_EQ(b.a_dev.rate, a.a_dev.rate);
    EXPECT_EQ(b.a_dev.ifq_packets, a.a_dev.ifq_packets);
    EXPECT_EQ(b.a_dev.qdisc, a.a_dev.qdisc);
    EXPECT_EQ(b.a_dev.name, a.a_dev.name);
    EXPECT_EQ(b.b_dev.rate, a.b_dev.rate);
    EXPECT_EQ(b.b_dev.ifq_packets, a.b_dev.ifq_packets);
    EXPECT_EQ(b.b_dev.name, a.b_dev.name);
  }
  ASSERT_EQ(reparsed.topology.flows.size(), original.topology.flows.size());
  for (std::size_t i = 0; i < original.topology.flows.size(); ++i) {
    const FlowSpec& a = original.topology.flows[i];
    const FlowSpec& b = reparsed.topology.flows[i];
    EXPECT_EQ(b.src, a.src);
    EXPECT_EQ(b.dst, a.dst);
    EXPECT_EQ(b.flow_id, a.flow_id);
    EXPECT_EQ(b.start, a.start);
    EXPECT_EQ(b.sender.mss, a.sender.mss);
    EXPECT_EQ(b.web100, a.web100);
    EXPECT_EQ(b.web100_poll_period, a.web100_poll_period);
  }
}

TEST_P(PresetRoundTripTest, ReparsedSpecRebuildsAnIdenticalScenario) {
  const ScenarioSpec original = preset_spec(GetParam());
  const ScenarioSpec reparsed = parse_scenario_spec(serialize_scenario_spec(original));
  EXPECT_EQ(fingerprint(reparsed), fingerprint(original));
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetRoundTripTest,
                         ::testing::Values("wanpath", "dumbbell", "parkinglot", "chain"),
                         [](const auto& info) { return info.param; });

// --- preset specs vs the C++ Config surface --------------------------------

TEST(PresetSpecTest, WanpathSpecMatchesTheCppPreset) {
  // The emitted spec is exactly WanPath::make_spec(default Config): same
  // JSON both ways.
  ScenarioSpec via_cpp;
  via_cpp.name = "wanpath";
  via_cpp.topology = WanPath::make_spec(WanPath::Config{});
  via_cpp.flow_cc = {"reno"};
  EXPECT_EQ(serialize_scenario_spec(preset_spec("wanpath")),
            serialize_scenario_spec(via_cpp));
}

TEST(PresetSpecTest, UnknownPresetThrows) {
  EXPECT_THROW((void)preset_spec("torus"), std::invalid_argument);
}

// --- the spec runner -------------------------------------------------------

TEST(RunSpecTest, EmitsOneRowPerPointAndFlowWithSweepColumns) {
  const metrics::Table table = run_spec_text(R"({
    "nodes": ["a", "b"],
    "links": [{"a": "a", "b": "b", "delay": "5ms",
               "a_dev": {"rate": "50mbps", "ifq_packets": 50}}],
    "flows": [{"src": "a", "dst": "b", "cc": "reno"},
              {"src": "b", "dst": "a", "cc": "rss"}],
    "run": {"duration": "1s"},
    "sweep": {"axes": [{"field": "seed", "values": [1, 2, 3]}]}
  })");
  ASSERT_EQ(table.row_count(), 6u);  // 3 points x 2 flows
  ASSERT_TRUE(table.column_index("seed").has_value());
  ASSERT_TRUE(table.column_index("goodput_mbps").has_value());
  EXPECT_EQ(table.at(0, *table.column_index("seed")).text, "1");
  EXPECT_EQ(table.at(5, *table.column_index("seed")).text, "3");
  EXPECT_EQ(table.at(0, *table.column_index("cc")).text, "reno");
  EXPECT_EQ(table.at(1, *table.column_index("cc")).text, "rss");
  // Both flows moved data.
  EXPECT_GT(table.at(0, *table.column_index("goodput_mbps")).number, 1.0);
  EXPECT_GT(table.at(1, *table.column_index("goodput_mbps")).number, 1.0);
}

TEST(RunSpecTest, MeasureWindowReportsDeltasNotTotals) {
  // The flow saturates a 10 Mb/s link from t=0; measuring over [2s, 4s]
  // must report the windowed rate (~10 Mb/s), not total-bytes/2s (~2x the
  // link rate, which is what a since-boot average over the short window
  // would give).
  const char* base = R"({
    "nodes": ["a", "b"],
    "links": [{"a": "a", "b": "b", "delay": "5ms",
               "a_dev": {"rate": "10mbps", "ifq_packets": 50}}],
    "flows": [{"src": "a", "dst": "b", "start": "0s", "cc": "reno"}],
    "run": {"duration": "4s"%s}
  })";
  char windowed[1024];
  std::snprintf(windowed, sizeof windowed, base, R"(, "measure_start": "2s")");
  char total[1024];
  std::snprintf(total, sizeof total, base, "");

  const metrics::Table w = run_spec_text(windowed);
  const metrics::Table t = run_spec_text(total);
  const std::size_t col = *w.column_index("goodput_mbps");
  // Windowed goodput is bounded by the link rate (plus slack for the
  // final in-flight window) — the pre-fix behavior reported ~2x.
  EXPECT_LE(w.at(0, col).number, 11.0);
  EXPECT_GT(w.at(0, col).number, 5.0);
  // And it is at least the whole-run average (no slow-start ramp inside
  // the window).
  EXPECT_GE(w.at(0, col).number, t.at(0, col).number - 0.5);
}

TEST(RunSpecTest, IsDeterministicAcrossThreadCounts) {
  const char* text = R"({
    "nodes": ["a", "b"],
    "links": [{"a": "a", "b": "b", "delay": "2ms",
               "a_dev": {"rate": "20mbps", "ifq_packets": 30}}],
    "flows": [{"src": "a", "dst": "b", "cc": "reno"}],
    "run": {"duration": "1s"},
    "sweep": {"axes": [{"field": "links[0].a_dev.ifq_packets",
                        "values": [10, 20, 30, 40]}]}
  })";
  const std::string serial = run_spec_text(text, {.jobs = 1}).to_csv();
  const std::string parallel = run_spec_text(text, {.jobs = 4}).to_csv();
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace rss::scenario::spec
