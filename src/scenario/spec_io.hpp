#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/data_rate.hpp"
#include "scenario/topology.hpp"
#include "sim/time.hpp"

namespace rss::scenario::spec {

/// Typed spec-file error, the file-format sibling of TopologyError: every
/// failure mode a JSON scenario file can exhibit gets a switchable code,
/// and the message carries the line (for syntax errors) or the dotted
/// field path (for schema errors) so `rss_scenario --validate` output
/// points at the offending spot, not just "bad file".
class SpecError : public std::runtime_error {
 public:
  enum class Code {
    kSyntax,        ///< malformed JSON text (line() is 1-based)
    kWrongType,     ///< key present but holds the wrong JSON type
    kMissingField,  ///< required key absent
    kUnknownField,  ///< unrecognized key — specs are parsed strictly
    kBadValue,      ///< bad unit suffix, unknown enum/cc name, out-of-range number
    kBadSweep,      ///< empty axis, zip length mismatch, unresolvable axis path
  };

  SpecError(Code code, std::string field, int line, const std::string& what)
      : std::runtime_error(what), code_{code}, field_{std::move(field)}, line_{line} {}

  [[nodiscard]] Code code() const { return code_; }
  /// Dotted path of the offending field ("links[2].a_dev.rate"); empty for
  /// document-level syntax errors.
  [[nodiscard]] const std::string& field() const { return field_; }
  /// 1-based source line, 0 when not applicable (schema errors on values
  /// synthesized in memory).
  [[nodiscard]] int line() const { return line_; }

 private:
  Code code_;
  std::string field_;
  int line_;
};

// --------------------------------------------------------------------------
// Minimal JSON document model. Self-contained (no third-party dependency):
// the subset the spec format needs — null, bool, number, string, array,
// object — with insertion-ordered object keys and per-value source lines so
// schema errors can point back into the file. Numbers keep their literal
// text, which makes serialize(parse(text)) byte-exact for 64-bit integers
// (seeds) that a double round-trip would corrupt.
// --------------------------------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type{Type::kNull};
  bool boolean{false};
  std::string number;  ///< literal text, e.g. "42", "-1.5e3" (type == kNumber)
  std::string string;  ///< decoded text (type == kString)
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< insertion order
  int line{0};  ///< 1-based line in the source text; 0 = built in memory

  [[nodiscard]] static JsonValue make_null();
  [[nodiscard]] static JsonValue make_bool(bool v);
  [[nodiscard]] static JsonValue make_number(std::uint64_t v);
  [[nodiscard]] static JsonValue make_number(std::int64_t v);
  [[nodiscard]] static JsonValue make_number(double v);
  /// Pre-formatted numeric literal (must be a valid JSON number).
  [[nodiscard]] static JsonValue make_number_literal(std::string literal);
  [[nodiscard]] static JsonValue make_string(std::string v);
  [[nodiscard]] static JsonValue make_array();
  [[nodiscard]] static JsonValue make_object();

  [[nodiscard]] bool is_object() const { return type == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type == Type::kArray; }
  [[nodiscard]] bool is_string() const { return type == Type::kString; }
  [[nodiscard]] bool is_number() const { return type == Type::kNumber; }

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  [[nodiscard]] JsonValue* find(std::string_view key);
  /// Append/overwrite an object member (keeps first-insertion order).
  void set(std::string_view key, JsonValue value);

  // Checked scalar accessors. `field` names the value in error messages.
  [[nodiscard]] double as_double(const std::string& field) const;
  [[nodiscard]] std::uint64_t as_u64(const std::string& field) const;
  [[nodiscard]] std::int64_t as_i64(const std::string& field) const;
  [[nodiscard]] bool as_bool(const std::string& field) const;
  [[nodiscard]] const std::string& as_string(const std::string& field) const;
};

/// Parse a JSON document. Throws SpecError{kSyntax} with a 1-based line on
/// malformed input; rejects trailing garbage and duplicate object keys.
[[nodiscard]] JsonValue json_parse(std::string_view text);

/// Pretty-print with 2-space indentation and a trailing newline. Stable:
/// serialize(parse(s)) == serialize(parse(serialize(parse(s)))).
[[nodiscard]] std::string json_serialize(const JsonValue& value);

// --------------------------------------------------------------------------
// Unit-tagged scalars. Times and rates are strings with a unit suffix
// ("30ms", "100mbps") so specs read like the prose they encode; the
// serializer picks the largest unit that divides the value exactly, which
// keeps round trips byte-identical.
// --------------------------------------------------------------------------

/// "250ns" / "10us" / "30ms" / "1.5s" -> Time (fractions round to the
/// nearest nanosecond). Throws SpecError{kBadValue}.
[[nodiscard]] sim::Time parse_time(const std::string& text, const std::string& field);
[[nodiscard]] std::string format_time(sim::Time t);

/// "9600bps" / "56kbps" / "100mbps" / "1gbps" -> DataRate. Throws
/// SpecError{kBadValue}.
[[nodiscard]] net::DataRate parse_rate(const std::string& text, const std::string& field);
[[nodiscard]] std::string format_rate(net::DataRate rate);

// --------------------------------------------------------------------------
// The scenario spec: a TopologySpec plus the pieces a config-only study
// needs on top of the topology — per-flow congestion control (by registered
// variant name), the run window, and an optional parameter sweep.
// --------------------------------------------------------------------------

/// How long to run and where the measurement window starts (goodput and
/// counter deltas are taken over [measure_start, duration]).
struct RunSpec {
  sim::Time duration{sim::Time::seconds(30)};
  sim::Time measure_start{sim::Time::zero()};
};

/// One sweep dimension: a dotted path into the spec document plus the
/// values to substitute there. Paths address any field — numeric knobs
/// ("links[0].a_dev.ifq_packets", "run.duration") are the common case, but
/// enum-like strings ("flows[0].cc") sweep the same way.
struct SweepAxis {
  std::string field;
  std::vector<JsonValue> values;
};

struct SweepSpec {
  enum class Mode {
    kGrid,  ///< cartesian product of all axes (first axis slowest)
    kZip,   ///< parallel iteration; all axes must have equal length
  };
  Mode mode{Mode::kGrid};
  std::vector<SweepAxis> axes;

  [[nodiscard]] bool empty() const { return axes.empty(); }
  /// Number of concrete points this sweep expands to (1 when empty).
  /// Throws SpecError{kBadSweep} on "sweep.axes" when a grid has more
  /// points than one std::vector<SweepPoint> can hold.
  [[nodiscard]] std::size_t point_count() const;
};

/// A parsed scenario file: everything needed to build and run the study
/// without recompiling.
struct ScenarioSpec {
  std::string name;               ///< study label (defaults to "scenario")
  TopologySpec topology;
  std::vector<std::string> flow_cc;  ///< variant name per flow ("reno", "rss", ...)
  RunSpec run;
  SweepSpec sweep;
};

/// Parse a scenario document (strict: unknown keys throw). Validates field
/// types, units, value ranges, cc names and sweep structure; topology-graph validity
/// (dangling endpoints, duplicate links, unroutable flows) is checked by
/// check_scenario_spec below, matching where the C++ builder checks it.
[[nodiscard]] ScenarioSpec parse_scenario_spec(std::string_view json_text);
[[nodiscard]] ScenarioSpec parse_scenario_spec(const JsonValue& document);

/// Load + parse a file. Throws std::runtime_error when unreadable.
[[nodiscard]] ScenarioSpec load_scenario_spec(const std::string& path);

/// Read a spec file's text (shared by every file-taking entry point);
/// throws std::runtime_error when the file cannot be opened.
[[nodiscard]] std::string read_spec_file(const std::string& path);

/// Graph-level validation: runs validate_topology plus the routability
/// check on every flow. Throws TopologyError (the same typed errors the
/// builder raises), so --validate reports dangling link endpoints et al.
/// before any simulation is attempted.
void check_scenario_spec(const ScenarioSpec& spec);

/// Serialize back to the canonical file form. Defaults are elided (a field
/// equal to its default is not emitted), so emitted presets stay readable
/// and serialize∘parse is byte-stable.
[[nodiscard]] std::string serialize_scenario_spec(const ScenarioSpec& spec);
[[nodiscard]] JsonValue scenario_spec_to_json(const ScenarioSpec& spec);

/// Every key path the parser accepts, in document order, with "[]" for an
/// array element: "name", ..., "links[].a_dev.red.min_threshold", ....
/// One field table per spec object drives parsing, serialization and this
/// list, so the list is the documented surface of docs/spec-format.md.
[[nodiscard]] std::vector<std::string> schema_fields();

// --------------------------------------------------------------------------
// Sweep expansion. Substitution happens on the JSON document: each point is
// the base document minus "sweep", with every axis value written at its
// field path — so a swept value passes through exactly the same validation
// as a hand-written one, and a point's spec and first error are those of
// parsing that document. Only the top-level members (or array elements)
// the axes write are re-read per point; the rest of the base is read once.
// --------------------------------------------------------------------------

/// One expanded sweep point: the concrete spec plus the axis assignment
/// that produced it, as (field path, JSON literal) pairs in axis order —
/// the sweep columns of the output table.
struct SweepPoint {
  ScenarioSpec spec;
  std::vector<std::pair<std::string, std::string>> assignment;
};

/// Expand a scenario document into its sweep points (a single point with an
/// empty assignment when the spec has no sweep). Throws SpecError{kBadSweep}
/// on empty axes, zip length mismatches, grids too large to expand, or
/// paths that are malformed, index out of range or do not resolve.
[[nodiscard]] std::vector<SweepPoint> expand_scenario_spec(const JsonValue& document);
[[nodiscard]] std::vector<SweepPoint> expand_scenario_spec(std::string_view json_text);

}  // namespace rss::scenario::spec
