#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "scenario/presets.hpp"
#include "scenario/spec_io.hpp"
#include "scenario/topology.hpp"

namespace rss::scenario::spec {
namespace {

using namespace rss::sim::literals;
using Code = SpecError::Code;

/// The thrown SpecError's code, or nullopt when `fn` doesn't throw it.
template <typename Fn>
std::optional<Code> spec_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const SpecError& e) {
    return e.code();
  }
  return std::nullopt;
}

/// The SpecError itself, for asserting on field/line context.
template <typename Fn>
std::optional<SpecError> spec_error_full(Fn&& fn) {
  try {
    fn();
  } catch (const SpecError& e) {
    return e;
  }
  return std::nullopt;
}

// --- JSON layer -----------------------------------------------------------

TEST(JsonParseTest, ParsesScalarsArraysAndObjects) {
  const JsonValue v = json_parse(R"({"a": 1, "b": [true, "x", null], "c": {"d": -2.5}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->as_u64("a"), 1u);
  ASSERT_TRUE(v.find("b")->is_array());
  EXPECT_EQ(v.find("b")->array.size(), 3u);
  EXPECT_TRUE(v.find("b")->array[0].as_bool("b[0]"));
  EXPECT_EQ(v.find("b")->array[1].as_string("b[1]"), "x");
  EXPECT_DOUBLE_EQ(v.find("c")->find("d")->as_double("c.d"), -2.5);
}

TEST(JsonParseTest, DecodesStringEscapes) {
  const JsonValue v = json_parse(R"(["a\"b", "tab\there", "A"])");
  EXPECT_EQ(v.array[0].as_string(""), "a\"b");
  EXPECT_EQ(v.array[1].as_string(""), "tab\there");
  EXPECT_EQ(v.array[2].as_string(""), "A");
}

TEST(JsonParseTest, MalformedDocumentsReportSyntaxErrorsWithLines) {
  const auto err = spec_error_full([] { (void)json_parse("{\n  \"a\": 1,\n  oops\n}"); });
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), Code::kSyntax);
  EXPECT_EQ(err->line(), 3);

  EXPECT_EQ(spec_error_of([] { (void)json_parse(""); }), Code::kSyntax);
  EXPECT_EQ(spec_error_of([] { (void)json_parse("{\"a\": }"); }), Code::kSyntax);
  EXPECT_EQ(spec_error_of([] { (void)json_parse("[1, 2"); }), Code::kSyntax);
  EXPECT_EQ(spec_error_of([] { (void)json_parse("\"unterminated"); }), Code::kSyntax);
  EXPECT_EQ(spec_error_of([] { (void)json_parse("{} trailing"); }), Code::kSyntax);
  EXPECT_EQ(spec_error_of([] { (void)json_parse("01"); }), Code::kSyntax);
}

TEST(JsonParseTest, RejectsDuplicateObjectKeys) {
  EXPECT_EQ(spec_error_of([] { (void)json_parse(R"({"a": 1, "a": 2})"); }), Code::kSyntax);
}

TEST(JsonParseTest, NumbersKeepTheirLiteralText) {
  // 2^63 + 1 is not representable as a double; the literal must survive.
  const JsonValue v = json_parse(R"({"seed": 9223372036854775809})");
  EXPECT_EQ(v.find("seed")->as_u64("seed"), 9223372036854775809ull);
  EXPECT_EQ(json_serialize(*v.find("seed")), "9223372036854775809\n");
}

TEST(JsonSerializeTest, RoundTripsStably) {
  const std::string text =
      R"({"name": "x", "nodes": ["a", "b"], "deep": {"k": [1, 2.5, true, null]}})";
  const std::string once = json_serialize(json_parse(text));
  const std::string twice = json_serialize(json_parse(once));
  EXPECT_EQ(once, twice);
}

// --- unit-tagged scalars --------------------------------------------------

TEST(UnitParseTest, ParsesTimes) {
  EXPECT_EQ(parse_time("250ns", "f"), 250_ns);
  EXPECT_EQ(parse_time("10us", "f"), 10_us);
  EXPECT_EQ(parse_time("30ms", "f"), 30_ms);
  EXPECT_EQ(parse_time("2s", "f"), 2_s);
  EXPECT_EQ(parse_time("1.5s", "f"), 1500_ms);
  EXPECT_EQ(parse_time("0s", "f"), sim::Time::zero());
}

TEST(UnitParseTest, FormatsTimesInLargestExactUnit) {
  EXPECT_EQ(format_time(30_ms), "30ms");
  EXPECT_EQ(format_time(1500_ms), "1500ms");
  EXPECT_EQ(format_time(2_s), "2s");
  EXPECT_EQ(format_time(1234_ns), "1234ns");
  EXPECT_EQ(format_time(sim::Time::zero()), "0s");
  // Round trip: parse(format(t)) == t.
  for (const sim::Time t : {1_ns, 999_us, 100_ms, 60_s}) {
    EXPECT_EQ(parse_time(format_time(t), "f"), t);
  }
}

TEST(UnitParseTest, ParsesRates) {
  EXPECT_EQ(parse_rate("9600bps", "f"), net::DataRate::bps(9600));
  EXPECT_EQ(parse_rate("56kbps", "f"), net::DataRate::kbps(56));
  EXPECT_EQ(parse_rate("100mbps", "f"), net::DataRate::mbps(100));
  EXPECT_EQ(parse_rate("1gbps", "f"), net::DataRate::gbps(1));
  EXPECT_EQ(parse_rate("2.5gbps", "f"), net::DataRate::mbps(2500));
  EXPECT_EQ(format_rate(net::DataRate::mbps(100)), "100mbps");
  EXPECT_EQ(format_rate(net::DataRate::bps(2500)), "2500bps");
}

TEST(UnitParseTest, BadUnitsAreTypedErrorsWithFieldContext) {
  const auto err = spec_error_full([] { (void)parse_time("30m", "links[0].delay"); });
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), Code::kBadValue);
  EXPECT_EQ(err->field(), "links[0].delay");
  EXPECT_NE(std::string{err->what()}.find("links[0].delay"), std::string::npos);

  EXPECT_EQ(spec_error_of([] { (void)parse_time("30", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time("fast", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time("-5ms", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_rate("100mps", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_rate("100", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_rate("0bps", "f"); }), Code::kBadValue);
}

TEST(UnitParseTest, NumericPartIsStrict) {
  // strtod alone would accept all of these; the unit grammar must not.
  EXPECT_EQ(spec_error_of([] { (void)parse_time(" 30ms", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time("+30ms", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time("0x10ms", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time("1e3ms", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time("1.ms", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time(".5s", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_rate("0x1egbps", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_rate("1e2mbps", "f"); }), Code::kBadValue);
}

// --- scenario schema ------------------------------------------------------

constexpr const char* kMinimalSpec = R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b", "delay": "10ms"}],
  "flows": [{"src": "a", "dst": "b"}]
})";

TEST(ScenarioSpecTest, ParsesMinimalSpecWithDefaults) {
  const ScenarioSpec s = parse_scenario_spec(kMinimalSpec);
  EXPECT_EQ(s.name, "scenario");
  EXPECT_EQ(s.topology.seed, 1u);
  EXPECT_FALSE(s.topology.execution.backend.has_value());
  ASSERT_EQ(s.topology.nodes.size(), 2u);
  ASSERT_EQ(s.topology.links.size(), 1u);
  EXPECT_EQ(s.topology.links[0].delay, 10_ms);
  EXPECT_EQ(s.topology.links[0].a_dev.rate, net::DataRate::gbps(1));
  ASSERT_EQ(s.topology.flows.size(), 1u);
  ASSERT_EQ(s.flow_cc.size(), 1u);
  EXPECT_EQ(s.flow_cc[0], "reno");
  EXPECT_EQ(s.run.duration, 30_s);
  EXPECT_TRUE(s.sweep.empty());
}

TEST(ScenarioSpecTest, UnknownKeysAreRejectedAtEveryLevel) {
  const auto top = spec_error_full(
      [] { (void)parse_scenario_spec(R"({"nodes": ["a"], "nodez": 1})"); });
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(top->code(), Code::kUnknownField);
  EXPECT_EQ(top->field(), "nodez");

  const auto nested = spec_error_full([] {
    (void)parse_scenario_spec(R"({
      "nodes": ["a", "b"],
      "links": [{"a": "a", "b": "b", "a_dev": {"ifq_pakcets": 10}}]
    })");
  });
  ASSERT_TRUE(nested.has_value());
  EXPECT_EQ(nested->code(), Code::kUnknownField);
  EXPECT_EQ(nested->field(), "links[0].a_dev.ifq_pakcets");
  EXPECT_GT(nested->line(), 1);
}

TEST(ScenarioSpecTest, MissingRequiredFieldsAreTyped) {
  EXPECT_EQ(spec_error_of([] { (void)parse_scenario_spec(R"({"seed": 1})"); }),
            Code::kMissingField);
  EXPECT_EQ(spec_error_of([] {
              (void)parse_scenario_spec(R"({"nodes": ["a", "b"], "links": [{"a": "a"}]})");
            }),
            Code::kMissingField);
  EXPECT_EQ(spec_error_of([] {
              (void)parse_scenario_spec(R"({"nodes": ["a", "b"], "flows": [{"src": "a"}]})");
            }),
            Code::kMissingField);
}

TEST(ScenarioSpecTest, WrongTypesAreTyped) {
  EXPECT_EQ(spec_error_of([] { (void)parse_scenario_spec(R"({"nodes": "a"})"); }),
            Code::kWrongType);
  EXPECT_EQ(spec_error_of([] { (void)parse_scenario_spec(R"({"nodes": ["a"], "seed": "x"})"); }),
            Code::kWrongType);
  EXPECT_EQ(spec_error_of([] { (void)parse_scenario_spec(R"([1, 2, 3])"); }), Code::kWrongType);
}

TEST(ScenarioSpecTest, BadEnumValuesAreTyped) {
  EXPECT_EQ(spec_error_of([] {
              (void)parse_scenario_spec(R"({"nodes": ["a"], "execution": {"backend": "quantum"}})");
            }),
            Code::kBadValue);
  EXPECT_EQ(spec_error_of([] {
              (void)parse_scenario_spec(R"({
                "nodes": ["a", "b"],
                "links": [{"a": "a", "b": "b", "a_dev": {"qdisc": "sfq"}}]
              })");
            }),
            Code::kBadValue);
  const auto cc = spec_error_full([] {
    (void)parse_scenario_spec(R"({
      "nodes": ["a", "b"],
      "links": [{"a": "a", "b": "b"}],
      "flows": [{"src": "a", "dst": "b", "cc": "warp-drive"}]
    })");
  });
  ASSERT_TRUE(cc.has_value());
  EXPECT_EQ(cc->code(), Code::kBadValue);
  EXPECT_EQ(cc->field(), "flows[0].cc");
}

TEST(ScenarioSpecTest, RedOptionsRequireRedQdisc) {
  EXPECT_EQ(spec_error_of([] {
              (void)parse_scenario_spec(R"({
                "nodes": ["a", "b"],
                "links": [{"a": "a", "b": "b", "a_dev": {"red": {"min_threshold": 5}}}]
              })");
            }),
            Code::kBadValue);
  const ScenarioSpec s = parse_scenario_spec(R"({
    "nodes": ["a", "b"],
    "links": [{"a": "a", "b": "b",
               "a_dev": {"qdisc": "red", "red": {"min_threshold": 5, "max_threshold": 20}}}]
  })");
  EXPECT_EQ(s.topology.links[0].a_dev.qdisc, QueueDiscipline::kRed);
  EXPECT_DOUBLE_EQ(s.topology.links[0].a_dev.red.min_threshold, 5.0);
}

TEST(ScenarioSpecTest, DanglingLinkEndpointIsATopologyError) {
  // Parsing succeeds (the file is well-formed JSON with known keys); the
  // graph check raises the same typed TopologyError the C++ builder does.
  const ScenarioSpec s = parse_scenario_spec(R"({
    "nodes": ["a", "b"],
    "links": [{"a": "a", "b": "ghost"}]
  })");
  try {
    check_scenario_spec(s);
    FAIL() << "expected TopologyError";
  } catch (const TopologyError& e) {
    EXPECT_EQ(e.code(), TopologyError::Code::kUnknownEndpoint);
  }
}

TEST(ScenarioSpecTest, UnroutableFlowIsATopologyError) {
  const ScenarioSpec s = parse_scenario_spec(R"({
    "nodes": ["a", "b", "c"],
    "links": [{"a": "a", "b": "b"}],
    "flows": [{"src": "a", "dst": "c"}]
  })");
  try {
    check_scenario_spec(s);
    FAIL() << "expected TopologyError";
  } catch (const TopologyError& e) {
    EXPECT_EQ(e.code(), TopologyError::Code::kUnroutableFlow);
  }
}

TEST(ScenarioSpecTest, FlowOptionsRoundTripThroughTheSchema) {
  const ScenarioSpec s = parse_scenario_spec(R"({
    "nodes": ["a", "b"],
    "links": [{"a": "a", "b": "b"}],
    "flows": [{
      "src": "a", "dst": "b", "id": 7, "start": "1500ms", "cc": "rss",
      "sender": {"mss": 1000, "enable_sack": true, "rtt": {"min_rto": "150ms"}},
      "receiver": {"ack_every": 1, "quickack_segments": 4},
      "web100": {"poll": "50ms"}
    }]
  })");
  const FlowSpec& f = s.topology.flows[0];
  EXPECT_EQ(f.flow_id, 7u);
  ASSERT_TRUE(f.start.has_value());
  EXPECT_EQ(*f.start, 1500_ms);
  EXPECT_EQ(s.flow_cc[0], "rss");
  EXPECT_EQ(f.sender.mss, 1000u);
  EXPECT_TRUE(f.sender.enable_sack);
  EXPECT_EQ(f.sender.rtt.min_rto, 150_ms);
  EXPECT_EQ(f.receiver.ack_every, 1);
  EXPECT_EQ(f.receiver.quickack_segments, 4u);
  EXPECT_TRUE(f.web100);
  EXPECT_EQ(f.web100_poll_period, 50_ms);

  // And the serialized form re-parses to the same serialized form.
  const std::string once = serialize_scenario_spec(s);
  EXPECT_EQ(serialize_scenario_spec(parse_scenario_spec(once)), once);
}

// --- the writer's elision rules -------------------------------------------

TEST(SpecWriterTest, KeepsTheFormatsElisionRules) {
  ScenarioSpec s;
  s.name = "";  // only the default name, "scenario", is elided
  s.topology.nodes = {"a", "b"};
  LinkSpec link;
  link.a = "a";
  link.b = "b";                                // delay at its default: written anyway
  link.a_dev.red.min_threshold = 5;            // not written: a_dev is drop-tail
  link.b_dev.qdisc = QueueDiscipline::kCodel;  // default codel block: not written
  s.topology.links = {link};
  FlowSpec packet;
  packet.src = "a";
  packet.dst = "b";
  packet.flow_id = 7;
  packet.web100 = true;  // at the default poll: written as {}
  FlowSpec fluid;
  fluid.src = "b";
  fluid.dst = "a";
  fluid.model = TrafficModel::kFluid;
  fluid.sender.mss = 1000;  // packet-only: not written for a fluid flow
  fluid.web100 = true;
  fluid.fluid.decrease = 0.75;
  s.topology.flows = {packet, fluid};
  s.flow_cc = {"cubic"};  // a flow past the end of flow_cc writes "reno"
  s.topology.execution.threads = 2;
  s.run.measure_start = 1_s;
  EXPECT_EQ(serialize_scenario_spec(s), R"({
  "name": "",
  "execution": {
    "threads": 2
  },
  "nodes": ["a", "b"],
  "links": [
    {
      "a": "a",
      "b": "b",
      "delay": "1ms",
      "b_dev": {
        "qdisc": "codel"
      }
    }
  ],
  "flows": [
    {
      "src": "a",
      "dst": "b",
      "id": 7,
      "cc": "cubic",
      "web100": {}
    },
    {
      "src": "b",
      "dst": "a",
      "model": "fluid",
      "fluid": {
        "decrease": 0.75
      }
    }
  ],
  "run": {
    "measure_start": "1s"
  }
}
)");
  s.flow_cc.clear();
  s.topology.flows.pop_back();
  EXPECT_NE(serialize_scenario_spec(s).find(R"("cc": "reno")"), std::string::npos);
}

// --- field constraints ----------------------------------------------------
//
// Values the builder's constructors would reject are table constraints: the
// parse fails with kBadValue on the field (or the red block) and its line,
// so `--validate` catches what `--run` would otherwise fail on untyped.

struct ConstraintCase {
  const char* label;
  const char* json;
  const char* field;
  int line;
};

const ConstraintCase kConstraintCases[] = {
    {"a_dev ifq_packets 0", R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b",
             "a_dev": {"ifq_packets": 0}}]
})",
     "links[0].a_dev.ifq_packets", 4},
    {"b_dev ifq_packets 0", R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b",
             "b_dev": {"ifq_packets": 0}}]
})",
     "links[0].b_dev.ifq_packets", 4},
    {"red min_threshold >= max_threshold", R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b", "a_dev": {"qdisc": "red",
             "red": {"min_threshold": 30,
                     "max_threshold": 30}}}]
})",
     "links[0].a_dev.red", 4},
    {"red min_threshold above the default max_threshold", R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b", "a_dev": {"qdisc": "red",
             "red": {"min_threshold": 50}}}]
})",
     "links[0].a_dev.red", 4},
    {"red queue_weight 0", R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b", "a_dev": {"qdisc": "red",
             "red": {"queue_weight": 0}}}]
})",
     "links[0].a_dev.red.queue_weight", 4},
    {"red queue_weight above 1", R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b", "a_dev": {"qdisc": "red",
             "red": {
               "queue_weight": 1.5}}}]
})",
     "links[0].a_dev.red.queue_weight", 5},
    {"codel target 0s", R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b", "a_dev": {"qdisc": "codel",
             "codel": {"target": "0s"}}}]
})",
     "links[0].a_dev.codel.target", 4},
    {"codel interval 0s", R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b", "a_dev": {"qdisc": "codel",
             "codel": {"target": "5ms",
                       "interval": "0s"}}}]
})",
     "links[0].a_dev.codel.interval", 5},
    {"sender mss 0", R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b"}],
  "flows": [{"src": "a", "dst": "b",
             "sender": {"mss": 0}}]
})",
     "flows[0].sender.mss", 5},
    {"receiver ack_every 0", R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b"}],
  "flows": [{"src": "a", "dst": "b",
             "receiver": {"ack_every": 0}}]
})",
     "flows[0].receiver.ack_every", 5},
    {"receiver ack_every -1", R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b"}],
  "flows": [{"src": "a", "dst": "b", "receiver": {
    "ack_every": -1}}]
})",
     "flows[0].receiver.ack_every", 5},
    {"web100 poll 0s", R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b"}],
  "flows": [{"src": "a", "dst": "b",
             "web100": {"poll": "0s"}}]
})",
     "flows[0].web100.poll", 5},
    {"fluid stride 0s", R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b"}],
  "flows": [{"src": "a", "dst": "b", "model": "fluid",
             "fluid": {"stride": "0s"}}]
})",
     "flows[0].fluid.stride", 5},
    {"fluid packet_bytes 0", R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b"}],
  "flows": [{"src": "a", "dst": "b", "model": "fluid",
             "fluid": {"packet_bytes": 0}}]
})",
     "flows[0].fluid.packet_bytes", 5},
};

TEST(SpecConstraintTest, ValuesTheBuilderWouldRejectFailOnTheirField) {
  for (const ConstraintCase& c : kConstraintCases) {
    const auto err = spec_error_full([&] { (void)parse_scenario_spec(c.json); });
    ASSERT_TRUE(err.has_value()) << c.label;
    EXPECT_EQ(err->code(), Code::kBadValue) << c.label << ": " << err->what();
    EXPECT_EQ(err->field(), c.field) << c.label << ": " << err->what();
    EXPECT_EQ(err->line(), c.line) << c.label << ": " << err->what();
  }
}

TEST(SpecConstraintTest, BoundaryValuesAreAccepted) {
  const ScenarioSpec s = parse_scenario_spec(R"({
    "nodes": ["a", "b"],
    "links": [{"a": "a", "b": "b",
               "a_dev": {"ifq_packets": 1, "qdisc": "red",
                         "red": {"min_threshold": 1, "max_threshold": 2, "queue_weight": 1}},
               "b_dev": {"qdisc": "codel", "codel": {"target": "1ns", "interval": "1ns"}}}],
    "flows": [{"src": "a", "dst": "b", "sender": {"mss": 1}, "receiver": {"ack_every": 1},
               "web100": {"poll": "1ns"}},
              {"src": "b", "dst": "a", "model": "fluid",
               "fluid": {"stride": "1ns", "packet_bytes": 1}}]
  })");
  EXPECT_DOUBLE_EQ(s.topology.links[0].a_dev.red.queue_weight, 1.0);
  EXPECT_EQ(s.topology.flows[1].fluid.packet_bytes, 1u);
}

// --- numbers that do not fit their field ----------------------------------

TEST(SpecNumberTest, NumbersThatDoNotFitTheirFieldAreBadValues) {
  const struct {
    const char* sender_or_receiver;
    const char* field;
  } cases[] = {
      {R"("sender": {"rtt": {"alpha": 1e999}})", "flows[0].sender.rtt.alpha"},
      {R"("sender": {"rtt": {"beta": -1e999}})", "flows[0].sender.rtt.beta"},
      {R"("sender": {"rtt": {"k": 4294967300}})", "flows[0].sender.rtt.k"},
      {R"("sender": {"rtt": {"k": -2147483649}})", "flows[0].sender.rtt.k"},
      {R"("receiver": {"ack_every": 4294967297})", "flows[0].receiver.ack_every"},
  };
  for (const auto& c : cases) {
    const std::string doc = std::string{R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b"}],
  "flows": [{"src": "a", "dst": "b", )"} +
                            c.sender_or_receiver + "}]\n}";
    const auto err = spec_error_full([&] { (void)parse_scenario_spec(doc); });
    ASSERT_TRUE(err.has_value()) << c.field;
    EXPECT_EQ(err->code(), Code::kBadValue) << err->what();
    EXPECT_EQ(err->field(), c.field) << err->what();
    EXPECT_EQ(err->line(), 4) << err->what();
  }
}

TEST(SpecNumberTest, LargestAcceptedValuesRoundTrip) {
  const ScenarioSpec s = parse_scenario_spec(R"({
    "nodes": ["a", "b"],
    "links": [{"a": "a", "b": "b"}],
    "flows": [{"src": "a", "dst": "b",
               "sender": {"rtt": {"alpha": 1e300, "k": 2147483647}},
               "receiver": {"ack_every": 2147483647}}]
  })");
  const FlowSpec& f = s.topology.flows[0];
  EXPECT_EQ(f.sender.rtt.k, 2147483647);
  EXPECT_DOUBLE_EQ(f.sender.rtt.alpha, 1e300);
  EXPECT_EQ(f.receiver.ack_every, 2147483647);
  const std::string once = serialize_scenario_spec(s);
  const ScenarioSpec again = parse_scenario_spec(once);
  EXPECT_EQ(serialize_scenario_spec(again), once);
  EXPECT_EQ(again.topology.flows[0].sender.rtt.k, 2147483647);
  EXPECT_DOUBLE_EQ(again.topology.flows[0].sender.rtt.alpha, 1e300);
}

// --- guard order ----------------------------------------------------------

TEST(SpecGuardTest, FlowKeysAreCheckedInTableOrder) {
  // "fluid" precedes the packet-only keys: a fluid flow reports an error
  // inside its fluid block before a packet-only key...
  const auto fluid = spec_error_full([] {
    (void)parse_scenario_spec(R"({
      "nodes": ["a", "b"],
      "links": [{"a": "a", "b": "b"}],
      "flows": [{"src": "a", "dst": "b", "model": "fluid", "cc": "reno",
                 "fluid": {"decrease": 2}}]
    })");
  });
  ASSERT_TRUE(fluid.has_value());
  EXPECT_EQ(fluid->code(), Code::kBadValue);
  EXPECT_EQ(fluid->field(), "flows[0].fluid.decrease");
  // ...and a packet flow reports its fluid block before a bad cc.
  const auto packet = spec_error_full([] {
    (void)parse_scenario_spec(R"({
      "nodes": ["a", "b"],
      "links": [{"a": "a", "b": "b"}],
      "flows": [{"src": "a", "dst": "b", "cc": "warp-drive", "fluid": {}}]
    })");
  });
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ(packet->code(), Code::kBadValue);
  EXPECT_EQ(packet->field(), "flows[0].fluid");
}

// --- sweep ----------------------------------------------------------------

constexpr const char* kSweepBase = R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b", "a_dev": {"ifq_packets": 100}}],
  "flows": [{"src": "a", "dst": "b"}],
  "sweep": %s
})";

[[nodiscard]] std::string with_sweep(const std::string& sweep_json) {
  char buf[2048];
  std::snprintf(buf, sizeof buf, kSweepBase, sweep_json.c_str());
  return buf;
}

TEST(SweepTest, GridExpandsAsCartesianProductLastAxisFastest) {
  const auto points = expand_scenario_spec(with_sweep(R"({
    "axes": [
      {"field": "links[0].a_dev.ifq_packets", "values": [10, 20]},
      {"field": "seed", "values": [1, 2, 3]}
    ]
  })"));
  ASSERT_EQ(points.size(), 6u);
  // First axis slowest: (10,1) (10,2) (10,3) (20,1) (20,2) (20,3).
  EXPECT_EQ(points[0].spec.topology.links[0].a_dev.ifq_packets, 10u);
  EXPECT_EQ(points[0].spec.topology.seed, 1u);
  EXPECT_EQ(points[2].spec.topology.seed, 3u);
  EXPECT_EQ(points[3].spec.topology.links[0].a_dev.ifq_packets, 20u);
  EXPECT_EQ(points[3].spec.topology.seed, 1u);
  // Assignments mirror the substitutions, in axis order.
  ASSERT_EQ(points[5].assignment.size(), 2u);
  EXPECT_EQ(points[5].assignment[0].first, "links[0].a_dev.ifq_packets");
  EXPECT_EQ(points[5].assignment[0].second, "20");
  EXPECT_EQ(points[5].assignment[1].second, "3");
}

TEST(SweepTest, ZipAdvancesAxesTogether) {
  const auto points = expand_scenario_spec(with_sweep(R"({
    "mode": "zip",
    "axes": [
      {"field": "links[0].a_dev.ifq_packets", "values": [10, 20]},
      {"field": "seed", "values": [7, 8]}
    ]
  })"));
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].spec.topology.links[0].a_dev.ifq_packets, 10u);
  EXPECT_EQ(points[0].spec.topology.seed, 7u);
  EXPECT_EQ(points[1].spec.topology.links[0].a_dev.ifq_packets, 20u);
  EXPECT_EQ(points[1].spec.topology.seed, 8u);
}

TEST(SweepTest, NoSweepYieldsOnePointWithEmptyAssignment) {
  const auto points = expand_scenario_spec(kMinimalSpec);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].assignment.empty());
}

TEST(SweepTest, EmptyAxisIsATypedError) {
  EXPECT_EQ(spec_error_of([] {
              (void)expand_scenario_spec(with_sweep(R"({
                "axes": [{"field": "seed", "values": []}]
              })"));
            }),
            Code::kBadSweep);
}

TEST(SweepTest, ZipLengthMismatchIsATypedError) {
  EXPECT_EQ(spec_error_of([] {
              (void)expand_scenario_spec(with_sweep(R"({
                "mode": "zip",
                "axes": [
                  {"field": "seed", "values": [1, 2]},
                  {"field": "links[0].a_dev.ifq_packets", "values": [10, 20, 30]}
                ]
              })"));
            }),
            Code::kBadSweep);
}

TEST(SweepTest, UnresolvablePathsAreTypedErrors) {
  EXPECT_EQ(spec_error_of([] {
              (void)expand_scenario_spec(with_sweep(R"({
                "axes": [{"field": "links[5].delay", "values": ["1ms"]}]
              })"));
            }),
            Code::kBadSweep);
  EXPECT_EQ(spec_error_of([] {
              (void)expand_scenario_spec(with_sweep(R"({
                "axes": [{"field": "phantom.knob", "values": [1]}]
              })"));
            }),
            Code::kBadSweep);
  EXPECT_EQ(spec_error_of([] {
              (void)expand_scenario_spec(with_sweep(R"({
                "axes": [{"field": "links[0]..x", "values": [1]}]
              })"));
            }),
            Code::kBadSweep);
}

TEST(SweepTest, AxisMayCreateAFieldTheBaseLeavesDefault) {
  // "name" is absent from the base document; the final path segment may be
  // created so fields the base leaves at their default can be swept too.
  const auto points = expand_scenario_spec(with_sweep(R"({
    "axes": [{"field": "name", "values": ["point-a", "point-b"]}]
  })"));
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].spec.name, "point-a");
  EXPECT_EQ(points[1].spec.name, "point-b");
}

TEST(SweepTest, SweptValuesPassNormalValidation) {
  // A bad unit inside a sweep value fails exactly like a hand-written one.
  EXPECT_EQ(spec_error_of([] {
              (void)expand_scenario_spec(with_sweep(R"({
                "axes": [{"field": "links[0].delay", "values": ["10parsecs"]}]
              })"));
            }),
            Code::kBadValue);
}

TEST(SpecConstraintTest, SweptValueFailsOnThePointsField) {
  const auto err = spec_error_full([] {
    (void)expand_scenario_spec(with_sweep(
        R"({"axes": [{"field": "links[0].a_dev.ifq_packets", "values": [10, 0]}]})"));
  });
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), Code::kBadValue) << err->what();
  EXPECT_EQ(err->field(), "links[0].a_dev.ifq_packets") << err->what();
  EXPECT_EQ(err->line(), 5) << err->what();
}

TEST(SweepTest, PointCountsAndModeParse) {
  const ScenarioSpec grid = parse_scenario_spec(with_sweep(R"({
    "axes": [
      {"field": "seed", "values": [1, 2]},
      {"field": "links[0].a_dev.ifq_packets", "values": [10, 20, 30]}
    ]
  })"));
  EXPECT_EQ(grid.sweep.mode, SweepSpec::Mode::kGrid);
  EXPECT_EQ(grid.sweep.point_count(), 6u);

  const ScenarioSpec zip = parse_scenario_spec(with_sweep(R"({
    "mode": "zip",
    "axes": [
      {"field": "seed", "values": [1, 2]},
      {"field": "links[0].a_dev.ifq_packets", "values": [10, 20]}
    ]
  })"));
  EXPECT_EQ(zip.sweep.mode, SweepSpec::Mode::kZip);
  EXPECT_EQ(zip.sweep.point_count(), 2u);

  EXPECT_EQ(spec_error_of([] {
              (void)parse_scenario_spec(with_sweep(R"({"mode": "spiral", "axes": []})"));
            }),
            Code::kBadValue);
}

/// A grid sweep over kSweepBase with `axes` two-value seed axes.
[[nodiscard]] std::string two_value_axes(std::size_t axes) {
  std::string sweep = R"({"axes": [)";
  for (std::size_t a = 0; a < axes; ++a)
    sweep += std::string{a ? ", " : ""} + R"({"field": "seed", "values": [1, 2]})";
  return sweep + "]}";
}

TEST(SweepTest, GridTooLargeToExpandIsATypedError) {
  // 2^64 points wrap a size_t to 0; 2^63 exceed what a vector can hold.
  for (const std::size_t axes : {64u, 63u}) {
    char buf[8192];
    std::snprintf(buf, sizeof buf, kSweepBase, two_value_axes(axes).c_str());
    const auto err = spec_error_full([&] { (void)expand_scenario_spec(buf); });
    ASSERT_TRUE(err.has_value()) << axes << " axes";
    EXPECT_EQ(err->code(), Code::kBadSweep);
    EXPECT_EQ(err->field(), "sweep.axes");
    EXPECT_EQ(spec_error_of([&] { (void)parse_scenario_spec(buf).sweep.point_count(); }),
              Code::kBadSweep);
  }
}

TEST(SweepTest, OversizedPathIndexIsATypedError) {
  const auto err = spec_error_full([] {
    (void)expand_scenario_spec(with_sweep(R"({
      "axes": [{"field": "flows[99999999999999999999].cc", "values": ["reno"]}]
    })"));
  });
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), Code::kBadSweep);
  EXPECT_EQ(err->field(), "flows[99999999999999999999].cc");
}

// --- sweep expansion against its definition -------------------------------
//
// The reference expands a sweep the way the format defines it: for every
// point, copy the document without "sweep", write each axis value at its
// path through JsonValue::find/set/array, and parse the result. Expansion
// must give every point the same bytes and assignment, or fail with the
// same code, field and line.

/// Writes `value` at `path`; every step but a last key must exist. The test
/// paths are well formed, so only resolution can fail.
void reference_write(JsonValue& document, const std::string& path, const JsonValue& value) {
  const auto unresolved = [&] { throw SpecError(Code::kBadSweep, path, 0, "unresolved"); };
  JsonValue* at = &document;
  std::size_t i = 0;
  while (i < path.size()) {
    const std::size_t end = std::min(path.find_first_of(".[", i), path.size());
    const std::string key = path.substr(i, end - i);
    i = end;
    JsonValue* next = at->find(key);
    if (!next) {
      if (!at->is_object() || i != path.size()) unresolved();
      at->set(key, value);
      return;
    }
    at = next;
    while (i < path.size() && path[i] == '[') {
      const std::size_t close = path.find(']', i);
      const std::size_t index = std::stoul(path.substr(i + 1, close - i - 1));
      if (!at->is_array() || index >= at->array.size()) unresolved();
      at = &at->array[index];
      i = close + 1;
    }
    if (i < path.size()) ++i;  // '.'
  }
  *at = value;
}

[[nodiscard]] std::string reference_text(const JsonValue& v) {
  if (v.is_string()) return v.string;
  if (v.is_number()) return v.number;
  return v.boolean ? "true" : "false";
}

struct ReferencePoint {
  std::string bytes;
  std::vector<std::pair<std::string, std::string>> assignment;
};

[[nodiscard]] std::vector<ReferencePoint> reference_expand(const JsonValue& document) {
  if (!document.find("sweep"))
    return {{serialize_scenario_spec(parse_scenario_spec(document)), {}}};
  JsonValue sweep_only = JsonValue::make_object();
  sweep_only.set("nodes", JsonValue::make_array());
  sweep_only.set("sweep", *document.find("sweep"));
  const SweepSpec sweep = parse_scenario_spec(sweep_only).sweep;
  std::size_t count = sweep.mode == SweepSpec::Mode::kZip ? sweep.axes.front().values.size() : 1;
  if (sweep.mode == SweepSpec::Mode::kGrid)
    for (const auto& axis : sweep.axes) count *= axis.values.size();

  std::vector<ReferencePoint> points;
  for (std::size_t p = 0; p < count; ++p) {
    JsonValue doc = JsonValue::make_object();
    doc.line = document.line;
    for (const auto& [key, value] : document.object)
      if (key != "sweep") doc.object.emplace_back(key, value);
    ReferencePoint point;
    std::size_t stride = count;
    for (const auto& axis : sweep.axes) {
      std::size_t pick = p;
      if (sweep.mode == SweepSpec::Mode::kGrid) {
        stride /= axis.values.size();
        pick = p / stride % axis.values.size();
      }
      reference_write(doc, axis.field, axis.values[pick]);
      point.assignment.emplace_back(axis.field, reference_text(axis.values[pick]));
    }
    point.bytes = serialize_scenario_spec(parse_scenario_spec(doc));
    points.push_back(std::move(point));
  }
  return points;
}

/// Expands `document` both ways and checks that they agree; returns the
/// error both raised, if any.
std::optional<SpecError> expect_matches_reference(const JsonValue& document,
                                                  const std::string& label) {
  std::vector<ReferencePoint> want;
  std::vector<SweepPoint> got;
  const auto want_err = spec_error_full([&] { want = reference_expand(document); });
  const auto got_err = spec_error_full([&] { got = expand_scenario_spec(document); });
  if (want_err) {
    EXPECT_TRUE(got_err.has_value()) << label << ": expected " << want_err->what();
    if (got_err) {
      EXPECT_EQ(got_err->code(), want_err->code()) << label << ": " << got_err->what();
      EXPECT_EQ(got_err->field(), want_err->field()) << label << ": " << got_err->what();
      EXPECT_EQ(got_err->line(), want_err->line()) << label << ": " << got_err->what();
    }
    return want_err;
  }
  if (got_err) {
    ADD_FAILURE() << label << ": " << got_err->what();
    return got_err;
  }
  EXPECT_EQ(got.size(), want.size()) << label;
  for (std::size_t p = 0; p < std::min(got.size(), want.size()); ++p) {
    EXPECT_EQ(serialize_scenario_spec(got[p].spec), want[p].bytes) << label << " point " << p;
    EXPECT_EQ(got[p].assignment, want[p].assignment) << label << " point " << p;
  }
  return std::nullopt;
}

/// A 1,024-flow ScaleMesh document holding every member the sweeps below
/// write, except "name", which an axis creates.
[[nodiscard]] JsonValue mesh_document() {
  ScaleMesh::Config cfg;
  cfg.segments = 2;
  cfg.flows_per_segment = 510;
  cfg.cross_flows_per_segment = 2;
  ScenarioSpec s;
  s.name = "scenario";  // the default, which serializes to no "name" at all
  s.topology = ScaleMesh::make_spec(cfg);
  s.topology.execution.partitions = 2;
  s.flow_cc.assign(s.topology.flows.size(), "reno");
  s.run.duration = 2_s;
  return json_parse(serialize_scenario_spec(s));
}

[[nodiscard]] JsonValue with_sweep(JsonValue document, const std::string& sweep_json) {
  document.set("sweep", json_parse(sweep_json));
  return document;
}

/// `base` with a sweep over every kind of member it holds: a top-level
/// scalar (seed), a key the base may lack (name), fields of the run and
/// execution objects, two axes on one link's device, and the first and the
/// last flow. Zip mode takes three values per axis; grid mode takes two on
/// half of the axes and one on the rest.
[[nodiscard]] JsonValue sweep_every_member(JsonValue base, SweepSpec::Mode mode) {
  const std::string last_flow =
      "flows[" + std::to_string(base.find("flows")->array.size() - 1) + "].start";
  const struct {
    std::string field;
    const char* values;
    bool varies_in_grid;
  } axes[] = {
      {"seed", "[7, 8, 9]", true},
      {"name", R"(["a", "b", "c"])", false},
      {"run.duration", R"(["1s", "3s", "5s"])", true},
      {"execution.partitions", "[1, 2, 4]", false},
      {"links[0].a_dev.rate", R"(["10mbps", "20mbps", "30mbps"])", true},
      {"links[0].a_dev.ifq_packets", "[25, 50, 75]", false},
      {"flows[0].cc", R"(["cubic", "reno", "highspeed"])", true},
      {last_flow, R"(["1ms", "2ms", "3ms"])", false},
  };
  JsonValue sweep = JsonValue::make_object();
  if (mode == SweepSpec::Mode::kZip) sweep.set("mode", JsonValue::make_string("zip"));
  JsonValue array = JsonValue::make_array();
  for (const auto& axis : axes) {
    // run.duration and execution.partitions resolve only where their object exists.
    const std::string member = axis.field.substr(0, axis.field.find('.'));
    if ((member == "run" || member == "execution") && !base.find(member)) continue;
    JsonValue values = json_parse(axis.values);
    if (mode == SweepSpec::Mode::kGrid) values.array.resize(axis.varies_in_grid ? 2 : 1);
    JsonValue a = JsonValue::make_object();
    a.set("field", JsonValue::make_string(axis.field));
    a.set("values", std::move(values));
    array.array.push_back(std::move(a));
  }
  sweep.set("axes", std::move(array));
  base.set("sweep", std::move(sweep));
  return base;
}

TEST(SweepReferenceTest, ShippedSpecsExpandLikeTheReference) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator{RSS_SPECS_DIR})
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 7u);
  for (const auto& file : files) {
    const std::string name = file.filename().string();
    const JsonValue document = json_parse(read_spec_file(file.string()));
    EXPECT_FALSE(expect_matches_reference(document, name).has_value());
    for (const auto mode : {SweepSpec::Mode::kGrid, SweepSpec::Mode::kZip})
      EXPECT_FALSE(
          expect_matches_reference(sweep_every_member(document, mode), name + " swept")
              .has_value());
  }
}

TEST(SweepReferenceTest, MeshSweepsOnEveryKindOfMemberExpandLikeTheReference) {
  const JsonValue mesh = mesh_document();
  ASSERT_GE(mesh.find("flows")->array.size(), 1000u);
  ASSERT_TRUE(mesh.find("run") && mesh.find("execution") && !mesh.find("name"));
  for (const auto mode : {SweepSpec::Mode::kGrid, SweepSpec::Mode::kZip}) {
    const JsonValue swept = sweep_every_member(mesh, mode);
    ASSERT_EQ(swept.find("sweep")->find("axes")->array.size(), 8u);
    EXPECT_FALSE(expect_matches_reference(swept, "mesh").has_value());
  }
}

TEST(SweepReferenceTest, ErrorsMatchTheReference) {
  JsonValue mesh = mesh_document();
  // An invalid base value every point overwrites never surfaces.
  JsonValue bad_cc = mesh;
  bad_cc.find("flows")->array[0].set("cc", JsonValue::make_string("no-such-cc"));
  EXPECT_FALSE(expect_matches_reference(
                   with_sweep(bad_cc, R"({"axes": [
                     {"field": "flows[0].cc", "values": ["reno", "cubic"]}]})"),
                   "overwritten base")
                   .has_value());

  struct Case {
    const char* label;
    JsonValue base;
    const char* sweep;
    std::optional<Code> code;  // the expected code, when the case pins one
  };
  JsonValue bogus_base = mesh;
  bogus_base.set("bogus", JsonValue::make_number(std::uint64_t{1}));
  const std::vector<Case> cases{
      {"axis creates a top-level key", mesh,
       R"({"axes": [{"field": "bogus", "values": [1, 2]}]})", Code::kUnknownField},
      {"axis creates a key in a flow", mesh,
       R"({"axes": [{"field": "flows[0].bogus", "values": [1]}]})", Code::kUnknownField},
      {"bad values in two members", mesh, R"({"mode": "zip", "axes": [
         {"field": "links[0].a_dev.rate", "values": ["10parsecs"]},
         {"field": "seed", "values": ["x"]}]})",
       Code::kWrongType},
      {"bad value in a later point", mesh,
       R"({"axes": [{"field": "flows[3].start", "values": ["1ms", "2ms", "soon"]}]})",
       Code::kBadValue},
      {"invalid base before a written part", bad_cc,
       R"({"axes": [{"field": "flows[5].cc", "values": ["bogus"]}]})", Code::kBadValue},
      {"written part before an invalid base", bad_cc,
       R"({"axes": [{"field": "seed", "values": [-1]}]})", Code::kBadValue},
      {"unknown base key after a bad value", bogus_base,
       R"({"axes": [{"field": "flows[2].ecn", "values": [1]}]})", Code::kWrongType},
      {"unknown base key", bogus_base, R"({"axes": [{"field": "seed", "values": [3]}]})",
       Code::kUnknownField},
      {"unresolvable path before a malformed one", mesh, R"({"axes": [
         {"field": "links[99999].delay", "values": ["1ms"]},
         {"field": "links[0]..delay", "values": ["1ms"]}]})",
       Code::kBadSweep},
      {"whole member then one of its elements", mesh, R"({"axes": [
         {"field": "flows", "values": [1]},
         {"field": "flows[0].cc", "values": ["reno"]}]})",
       Code::kBadSweep},
      {"an element then its whole member", mesh, R"({"axes": [
         {"field": "flows[0].cc", "values": ["reno"]},
         {"field": "flows", "values": [1]}]})",
       Code::kWrongType},
      {"element replaced by a scalar", mesh,
       R"({"axes": [{"field": "links[2]", "values": ["x"]}]})", Code::kWrongType},
      {"axis creates a sweep", mesh, R"({"axes": [{"field": "sweep", "values": [1]}]})",
       Code::kWrongType},
      {"axis under an absent member", mesh,
       R"({"axes": [{"field": "sweep.mode", "values": ["zip"]}]})", Code::kBadSweep},
      {"renamed node", mesh, R"({"axes": [{"field": "nodes[1]", "values": ["x", "y"]}]})",
       std::nullopt},
      {"node replaced by a number", mesh,
       R"({"axes": [{"field": "nodes[1]", "values": [5]}]})", Code::kWrongType},
  };
  for (const Case& c : cases) {
    const auto err = expect_matches_reference(with_sweep(c.base, c.sweep), c.label);
    if (c.code) {
      ASSERT_TRUE(err.has_value()) << c.label;
      EXPECT_EQ(err->code(), *c.code) << c.label << ": " << err->what();
    }
  }
}


// --- the documented surface -----------------------------------------------
//
// docs/spec-format.md documents each spec object in a `| Field |` table whose
// first cell names the row's keys in backticks. Every object the parser
// accepts must have a table listing exactly its keys: a key without a row,
// and a row naming a key the object does not have, both fail.

/// The keys of each `| Field |` table of the spec-format doc, under the
/// heading it follows.
[[nodiscard]] std::vector<std::pair<std::string, std::set<std::string>>> documented_tables() {
  std::ifstream in{std::string{RSS_SPECS_DIR} + "/../docs/spec-format.md"};
  std::vector<std::pair<std::string, std::set<std::string>>> tables;
  std::string line, heading;
  bool fenced = false, in_table = false;
  while (std::getline(in, line)) {
    if (line.starts_with("```")) fenced = !fenced;
    if (fenced) continue;
    if (line.starts_with("#")) heading = line;
    if (!line.starts_with("|")) {
      in_table = false;
      continue;
    }
    if (line.starts_with("| Field |")) {
      tables.emplace_back(heading, std::set<std::string>{});
      in_table = true;
      continue;
    }
    if (!in_table || line.starts_with("|---")) continue;
    const std::string cell = line.substr(1, line.find('|', 1) - 1);
    for (std::size_t open = cell.find('`'); open != std::string::npos;) {
      const std::size_t close = cell.find('`', open + 1);
      tables.back().second.insert(cell.substr(open + 1, close - open - 1));
      open = cell.find('`', close + 1);
    }
  }
  return tables;
}

/// The keys of each object the parser accepts, by the object's key path.
[[nodiscard]] std::map<std::string, std::set<std::string>> schema_objects() {
  std::map<std::string, std::set<std::string>> objects;
  for (const std::string& path : schema_fields()) {
    const std::size_t dot = path.rfind('.');
    const std::string parent = dot == std::string::npos ? "" : path.substr(0, dot);
    objects[parent].insert(dot == std::string::npos ? path : path.substr(dot + 1));
  }
  return objects;
}

[[nodiscard]] std::string joined(const std::set<std::string>& keys) {
  std::string out;
  for (const auto& k : keys) out += (out.empty() ? "" : ", ") + k;
  return out;
}

TEST(SchemaDocsTest, EveryObjectHasADocTableListingExactlyItsKeys) {
  const auto objects = schema_objects();
  const auto tables = documented_tables();
  ASSERT_GE(schema_fields().size(), 70u);
  ASSERT_GE(tables.size(), 14u);
  EXPECT_TRUE(objects.contains("links[].a_dev.red") && objects.contains("sweep.axes[]"));

  const auto overlap = [](const std::set<std::string>& a, const std::set<std::string>& b) {
    return std::count_if(a.begin(), a.end(), [&](const auto& k) { return b.contains(k); });
  };
  const auto missing = [](const std::set<std::string>& from, const std::set<std::string>& in) {
    std::set<std::string> out;
    for (const auto& k : from)
      if (!in.contains(k)) out.insert(k);
    return out;
  };
  for (const auto& [path, keys] : objects) {
    const auto best = std::max_element(tables.begin(), tables.end(), [&](auto& a, auto& b) {
      return overlap(keys, a.second) < overlap(keys, b.second);
    });
    if (best->second == keys) continue;
    ADD_FAILURE() << "object '" << path << "': nearest doc table is under '" << best->first
                  << "'; keys without a row: [" << joined(missing(keys, best->second))
                  << "], rows naming no key of the object: ["
                  << joined(missing(best->second, keys)) << "]";
  }
  for (const auto& [heading, keys] : tables) {
    const bool matches = std::any_of(objects.begin(), objects.end(),
                                     [&](const auto& object) { return object.second == keys; });
    if (matches) continue;
    std::set<std::string> unknown = keys;
    for (const auto& object : objects)
      for (const auto& k : object.second) unknown.erase(k);
    ADD_FAILURE() << "doc table under '" << heading << "' lists no object's keys exactly"
                  << "; rows naming a key no table has: [" << joined(unknown) << "]";
  }
}

}  // namespace
}  // namespace rss::scenario::spec
