#include "scenario/spec_io.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <sstream>
#include <system_error>
#include <tuple>
#include <type_traits>

#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"

namespace rss::scenario::spec {

namespace {

// --- error helpers --------------------------------------------------------

[[noreturn]] void fail(SpecError::Code code, const std::string& field, int line,
                       const std::string& msg) {
  std::string what = "spec";
  if (!field.empty()) what += ": " + field;
  if (line > 0) what += " (line " + std::to_string(line) + ")";
  what += ": " + msg;
  throw SpecError(code, field, line, what);
}

/// A field's dotted path ("links[2].a_dev.rate") as a chain of steps on the
/// reader's stack, spelled out only when an error names it, so reading a
/// valid document builds no strings. A step refers to its parent, which
/// must outlive it.
struct Path {
  const Path* parent{nullptr};
  std::string_view key{};
  std::size_t index{0};
  bool is_index{false};

  [[nodiscard]] Path operator/(std::string_view k) const { return {this, k}; }
  [[nodiscard]] Path operator[](std::size_t i) const { return {this, {}, i, true}; }

  [[nodiscard]] std::string str() const {
    std::string s = parent ? parent->str() : std::string{};
    if (is_index) return s + "[" + std::to_string(index) + "]";
    if (!s.empty() && !key.empty()) s += '.';
    return s.append(key);
  }
};

[[noreturn]] void fail(SpecError::Code code, const Path& field, int line, const std::string& msg) {
  fail(code, field.str(), line, msg);
}

[[noreturn]] void fail_unknown_field(const Path& path, const std::string& key, int line) {
  fail(SpecError::Code::kUnknownField, path / key, line, "unknown field \"" + key + "\"");
}

void expect_number(const JsonValue& v, const Path& field) {
  if (v.type != JsonValue::Type::kNumber)
    fail(SpecError::Code::kWrongType, field, v.line, "expected a number");
}

[[nodiscard]] double double_at(const JsonValue& v, const Path& field) {
  expect_number(v, field);
  return std::strtod(v.number.c_str(), nullptr);
}

/// A number that is an integer and fits T; anything else is kBadValue.
template <std::integral T>
[[nodiscard]] T integer_at(const JsonValue& v, const Path& field) {
  expect_number(v, field);
  const std::string& number = v.number;
  T n{};
  const auto [end, ec] = std::from_chars(number.data(), number.data() + number.size(), n);
  if (ec == std::errc::result_out_of_range)
    fail(SpecError::Code::kBadValue, field, v.line, "integer out of range: '" + number + "'");
  constexpr const char* kExpected =
      std::is_signed_v<T> ? "expected an integer" : "expected a non-negative integer";
  if (ec != std::errc{} || end != number.data() + number.size())
    fail(SpecError::Code::kBadValue, field, v.line,
         std::string{kExpected} + ", got '" + number + "'");
  return n;
}

[[nodiscard]] bool bool_at(const JsonValue& v, const Path& field) {
  if (v.type != JsonValue::Type::kBool)
    fail(SpecError::Code::kWrongType, field, v.line, "expected true or false");
  return v.boolean;
}

[[nodiscard]] const std::string& string_at(const JsonValue& v, const Path& field) {
  if (v.type != JsonValue::Type::kString)
    fail(SpecError::Code::kWrongType, field, v.line, "expected a string");
  return v.string;
}

}  // namespace

// --- JsonValue ------------------------------------------------------------

JsonValue JsonValue::make_null() { return {}; }

JsonValue JsonValue::make_bool(bool v) {
  JsonValue j;
  j.type = Type::kBool;
  j.boolean = v;
  return j;
}

JsonValue JsonValue::make_number(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return make_number_literal(buf);
}

JsonValue JsonValue::make_number(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  return make_number_literal(buf);
}

JsonValue JsonValue::make_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return make_number_literal(buf);
}

JsonValue JsonValue::make_number_literal(std::string literal) {
  JsonValue j;
  j.type = Type::kNumber;
  j.number = std::move(literal);
  return j;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue j;
  j.type = Type::kString;
  j.string = std::move(v);
  return j;
}

JsonValue JsonValue::make_array() {
  JsonValue j;
  j.type = Type::kArray;
  return j;
}

JsonValue JsonValue::make_object() {
  JsonValue j;
  j.type = Type::kObject;
  return j;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

JsonValue* JsonValue::find(std::string_view key) {
  if (type != Type::kObject) return nullptr;
  for (auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

void JsonValue::set(std::string_view key, JsonValue value) {
  if (JsonValue* existing = find(key)) {
    *existing = std::move(value);
    return;
  }
  object.emplace_back(std::string{key}, std::move(value));
}

double JsonValue::as_double(const std::string& field) const {
  return double_at(*this, Path{nullptr, field});
}

std::uint64_t JsonValue::as_u64(const std::string& field) const {
  return integer_at<std::uint64_t>(*this, Path{nullptr, field});
}

std::int64_t JsonValue::as_i64(const std::string& field) const {
  return integer_at<std::int64_t>(*this, Path{nullptr, field});
}

bool JsonValue::as_bool(const std::string& field) const {
  return bool_at(*this, Path{nullptr, field});
}

const std::string& JsonValue::as_string(const std::string& field) const {
  return string_at(*this, Path{nullptr, field});
}

// --- JSON parser ----------------------------------------------------------

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_{text} {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size())
      fail(SpecError::Code::kSyntax, "", line_, "trailing characters after JSON document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  [[noreturn]] void syntax(const std::string& msg) {
    fail(SpecError::Code::kSyntax, "", line_, msg);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') ++line_;
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    if (pos_ >= text_.size()) syntax("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c)
      syntax(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) syntax("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return parse_string_value();
      case 't':
      case 'f':
        return parse_bool();
      case 'n':
        parse_literal("null");
        return JsonValue::make_null();
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        syntax(std::string{"unexpected character '"} + c + "'");
    }
  }

  JsonValue parse_object(int depth) {
    JsonValue obj = JsonValue::make_object();
    obj.line = line_;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    std::set<std::string> keys;
    while (true) {
      skip_ws();
      if (peek() != '"') syntax("expected a quoted object key");
      const int key_line = line_;
      std::string key = parse_string_text();
      if (!keys.insert(key).second)
        fail(SpecError::Code::kSyntax, "", key_line, "duplicate object key \"" + key + "\"");
      skip_ws();
      expect(':');
      obj.object.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      syntax("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(int depth) {
    JsonValue arr = JsonValue::make_array();
    arr.line = line_;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.array.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      syntax("expected ',' or ']' in array");
    }
  }

  JsonValue parse_string_value() {
    const int at = line_;
    JsonValue v = JsonValue::make_string(parse_string_text());
    v.line = at;
    return v;
  }

  std::string parse_string_text() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) syntax("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\n') syntax("unescaped newline in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) syntax("unterminated escape sequence");
      c = text_[pos_++];
      switch (c) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: syntax(std::string{"invalid escape '\\"} + c + "'");
      }
    }
  }

  void append_unicode_escape(std::string& out) {
    if (pos_ + 4 > text_.size()) syntax("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else syntax("invalid hex digit in \\u escape");
    }
    // UTF-8 encode the BMP code point (surrogate pairs are out of scope for
    // topology names; reject them explicitly).
    if (code >= 0xD800 && code <= 0xDFFF) syntax("surrogate \\u escapes are not supported");
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  JsonValue parse_bool() {
    if (text_.substr(pos_).starts_with("true")) {
      pos_ += 4;
      JsonValue v = JsonValue::make_bool(true);
      v.line = line_;
      return v;
    }
    parse_literal("false");
    JsonValue v = JsonValue::make_bool(false);
    v.line = line_;
    return v;
  }

  void parse_literal(std::string_view word) {
    if (!text_.substr(pos_).starts_with(word))
      syntax("invalid literal (expected " + std::string{word} + ")");
    pos_ += word.size();
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    const int at = line_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      syntax("malformed number");
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))
      syntax("malformed number (leading zeros are not allowed)");
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        syntax("malformed number (digits required after '.')");
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        syntax("malformed number (digits required in exponent)");
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    JsonValue v = JsonValue::make_number_literal(std::string{text_.substr(start, pos_ - start)});
    v.line = at;
    return v;
  }

  std::string_view text_;
  std::size_t pos_{0};
  int line_{1};
};

}  // namespace

JsonValue json_parse(std::string_view text) { return JsonParser{text}.parse_document(); }

// --- JSON serializer ------------------------------------------------------

namespace {

void append_quoted(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

[[nodiscard]] bool is_scalar_array(const JsonValue& v) {
  for (const auto& e : v.array)
    if (e.type == JsonValue::Type::kArray || e.type == JsonValue::Type::kObject) return false;
  return true;
}

void serialize_value(std::string& out, const JsonValue& v, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string pad_in(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (v.type) {
    case JsonValue::Type::kNull:
      out += "null";
      return;
    case JsonValue::Type::kBool:
      out += v.boolean ? "true" : "false";
      return;
    case JsonValue::Type::kNumber:
      out += v.number;
      return;
    case JsonValue::Type::kString:
      append_quoted(out, v.string);
      return;
    case JsonValue::Type::kArray: {
      if (v.array.empty()) {
        out += "[]";
        return;
      }
      // Scalar-only arrays render inline; nested ones get a line per element.
      if (is_scalar_array(v)) {
        out.push_back('[');
        for (std::size_t i = 0; i < v.array.size(); ++i) {
          if (i) out += ", ";
          serialize_value(out, v.array[i], indent);
        }
        out.push_back(']');
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        out += pad_in;
        serialize_value(out, v.array[i], indent + 1);
        if (i + 1 < v.array.size()) out.push_back(',');
        out.push_back('\n');
      }
      out += pad + "]";
      return;
    }
    case JsonValue::Type::kObject: {
      if (v.object.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        out += pad_in;
        append_quoted(out, v.object[i].first);
        out += ": ";
        serialize_value(out, v.object[i].second, indent + 1);
        if (i + 1 < v.object.size()) out.push_back(',');
        out.push_back('\n');
      }
      out += pad + "}";
      return;
    }
  }
}

}  // namespace

std::string json_serialize(const JsonValue& value) {
  std::string out;
  serialize_value(out, value, 0);
  out.push_back('\n');
  return out;
}

// --- unit-tagged scalars --------------------------------------------------

namespace {

/// Split "<number><suffix>" and return the suffix. The numeric part is
/// held to a strict `digits[.digits]` grammar (no sign, whitespace, hex,
/// or exponent — strtod alone would accept all of those), matching the
/// strictness of the JSON layer. Throws kBadValue when it is missing or
/// malformed.
double split_unit(const std::string& text, const Path& field, std::string& suffix) {
  std::size_t i = 0;
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
  const std::size_t int_digits = i;
  if (i < text.size() && text[i] == '.') {
    ++i;
    const std::size_t frac_start = i;
    while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
    if (i == frac_start)
      fail(SpecError::Code::kBadValue, field, 0, "malformed value '" + text + "'");
  }
  if (int_digits == 0)
    fail(SpecError::Code::kBadValue, field, 0, "malformed value '" + text + "'");
  const double v = std::strtod(text.substr(0, i).c_str(), nullptr);
  if (!std::isfinite(v))
    fail(SpecError::Code::kBadValue, field, 0, "malformed value '" + text + "'");
  suffix.assign(text, i, std::string::npos);
  return v;
}

sim::Time time_at(const std::string& text, const Path& field) {
  std::string suffix;
  const double v = split_unit(text, field, suffix);
  double ns_per_unit = 0;
  if (suffix == "ns") ns_per_unit = 1;
  else if (suffix == "us") ns_per_unit = 1e3;
  else if (suffix == "ms") ns_per_unit = 1e6;
  else if (suffix == "s") ns_per_unit = 1e9;
  else
    fail(SpecError::Code::kBadValue, field, 0,
         "bad time unit in '" + text + "' (expected ns, us, ms, or s)");
  const double ns = v * ns_per_unit;
  if (ns > 9.2e18)
    fail(SpecError::Code::kBadValue, field, 0, "time '" + text + "' out of range");
  return sim::Time::nanoseconds(static_cast<std::int64_t>(ns + 0.5));
}

net::DataRate rate_at(const std::string& text, const Path& field) {
  std::string suffix;
  const double v = split_unit(text, field, suffix);
  double bps_per_unit = 0;
  if (suffix == "bps") bps_per_unit = 1;
  else if (suffix == "kbps") bps_per_unit = 1e3;
  else if (suffix == "mbps") bps_per_unit = 1e6;
  else if (suffix == "gbps") bps_per_unit = 1e9;
  else
    fail(SpecError::Code::kBadValue, field, 0,
         "bad rate unit in '" + text + "' (expected bps, kbps, mbps, or gbps)");
  const double bps = v * bps_per_unit;
  if (bps < 1 || bps > 1.8e19)
    fail(SpecError::Code::kBadValue, field, 0, "rate '" + text + "' out of range");
  return net::DataRate::bps(static_cast<std::uint64_t>(bps + 0.5));
}

}  // namespace

sim::Time parse_time(const std::string& text, const std::string& field) {
  return time_at(text, Path{nullptr, field});
}

std::string format_time(sim::Time t) {
  const std::int64_t ns = t.nanoseconds_count();
  char buf[40];
  if (ns == 0) {
    return "0s";
  } else if (ns % 1'000'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%" PRId64 "s", ns / 1'000'000'000);
  } else if (ns % 1'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%" PRId64 "ms", ns / 1'000'000);
  } else if (ns % 1'000 == 0) {
    std::snprintf(buf, sizeof buf, "%" PRId64 "us", ns / 1'000);
  } else {
    std::snprintf(buf, sizeof buf, "%" PRId64 "ns", ns);
  }
  return buf;
}

net::DataRate parse_rate(const std::string& text, const std::string& field) {
  return rate_at(text, Path{nullptr, field});
}

std::string format_rate(net::DataRate rate) {
  const std::uint64_t bps = rate.bits_per_second();
  char buf[40];
  if (bps != 0 && bps % 1'000'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%" PRIu64 "gbps", bps / 1'000'000'000);
  } else if (bps != 0 && bps % 1'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%" PRIu64 "mbps", bps / 1'000'000);
  } else if (bps != 0 && bps % 1'000 == 0) {
    std::snprintf(buf, sizeof buf, "%" PRIu64 "kbps", bps / 1'000);
  } else {
    std::snprintf(buf, sizeof buf, "%" PRIu64 "bps", bps);
  }
  return buf;
}

// --- schema: field tables -------------------------------------------------
//
// Every object of the spec format has one table: a std::tuple with one Field
// per key, in document order. read_object, write_object and list_fields walk
// a table expanded at compile time, so each entry's codec and rules inline
// into the walk instead of costing an indirect call per field.

namespace {

/// A flow as its document spells it: the FlowSpec plus its cc name, which
/// ScenarioSpec keeps beside the topology in flow_cc.
struct FlowDoc : FlowSpec {
  std::string cc{"reno"};
};

/// What an absent key leaves, and what the writer elides.
template <typename T>
[[nodiscard]] const T& defaults() {
  static const T kDefaults{};
  return kDefaults;
}

template <>
[[nodiscard]] const ScenarioSpec& defaults<ScenarioSpec>() {
  static const ScenarioSpec kDefaults{
      .name = "scenario", .topology = {}, .flow_cc = {}, .run = {}, .sweep = {}};
  return kDefaults;
}

enum class Presence {
  kOptional,  ///< may be absent; written unless equal to its default
  kAlways,    ///< may be absent; always written
  kRequired,  ///< must be present; always written
};

/// A predicate and the reason its rejection gives.
template <typename P>
struct Rule {
  P ok;
  std::string_view what;
};

struct Always {
  static constexpr std::string_view what{};
  static constexpr bool ok(const auto&) { return true; }
};

/// Picks the codec from the member's type (see Scalar).
struct ByType {};

/// One key of a table. `get` is a member pointer, or a callable returning
/// the member. The guard is judged on the owner as read so far: where it
/// fails, the key is kBadValue `"<key>" <what>` and is never written. A value
/// the constraint (`check`) rejects is kBadValue `<what>` on its field.
template <typename Get, typename Codec, typename Guard = Always, typename Check = Always>
struct Field {
  std::string_view key;
  Get get;
  Codec codec{};
  Presence presence{Presence::kOptional};
  Guard guard{};
  Check check{};

  [[nodiscard]] constexpr Field required() const {
    return {key, get, codec, Presence::kRequired, guard, check};
  }
  [[nodiscard]] constexpr Field always() const {
    return {key, get, codec, Presence::kAlways, guard, check};
  }
  template <typename P>
  [[nodiscard]] constexpr auto only_if(Rule<P> g) const {
    return Field<Get, Codec, Rule<P>, Check>{key, get, codec, presence, g, check};
  }
  template <typename P>
  [[nodiscard]] constexpr auto must(Rule<P> c) const {
    return Field<Get, Codec, Guard, Rule<P>>{key, get, codec, presence, guard, c};
  }
};

template <typename Get, typename Codec = ByType>
[[nodiscard]] constexpr Field<Get, Codec> field(std::string_view key, Get get, Codec codec = {}) {
  return {key, get, codec};
}

/// The accessor of a field whose codec reads and writes its whole owner.
constexpr auto kSelf = [](auto& owner) -> auto& { return owner; };

template <typename T>
struct Scalar;

/// The codec of field type F on owner type Owner.
template <typename F, typename Owner>
using CodecOf =
    std::conditional_t<std::is_same_v<decltype(F::codec), ByType>,
                       Scalar<std::remove_cvref_t<std::invoke_result_t<decltype(F::get), Owner&>>>,
                       decltype(F::codec)>;

template <const auto& Table, typename Owner>
void read_object(const JsonValue& v, const Path& path, Owner& out);
template <const auto& Table, typename Owner>
[[nodiscard]] JsonValue write_object(const Owner& owner);
template <const auto& Table>
void list_fields(const std::string& prefix, std::vector<std::string>& out);

// --- codecs ---------------------------------------------------------------
//
// A codec `read`s a JSON value into a member. Scalars `write` it back, elided
// when equal to the default; composites `put` it into the owner's object or
// leave it out, and `list` the keys they hold.

template <>
struct Scalar<bool> {
  static void read(const JsonValue& x, const Path& at, bool& v) { v = bool_at(x, at); }
  static JsonValue write(bool v) { return JsonValue::make_bool(v); }
};

template <std::integral T>
struct Scalar<T> {
  static void read(const JsonValue& x, const Path& at, T& v) { v = integer_at<T>(x, at); }
  static JsonValue write(T v) {
    using Wide = std::conditional_t<std::is_signed_v<T>, std::int64_t, std::uint64_t>;
    return JsonValue::make_number(Wide{v});
  }
};

template <>
struct Scalar<double> {
  static void read(const JsonValue& x, const Path& at, double& v) {
    v = double_at(x, at);
    if (!std::isfinite(v)) fail(SpecError::Code::kBadValue, at, x.line, "number out of range");
  }
  static JsonValue write(double v) { return JsonValue::make_number(v); }
};

template <>
struct Scalar<std::string> {
  static void read(const JsonValue& x, const Path& at, std::string& v) { v = string_at(x, at); }
  static JsonValue write(const std::string& v) { return JsonValue::make_string(v); }
};

template <>
struct Scalar<sim::Time> {
  static void read(const JsonValue& x, const Path& at, sim::Time& v) {
    v = time_at(string_at(x, at), at);
  }
  static JsonValue write(sim::Time v) { return JsonValue::make_string(format_time(v)); }
};

template <typename T>
struct Scalar<std::optional<T>> {
  static void read(const JsonValue& x, const Path& at, std::optional<T>& v) {
    Scalar<T>::read(x, at, v.emplace());
  }
  static JsonValue write(const std::optional<T>& v) {
    return v ? Scalar<T>::write(*v) : JsonValue::make_null();  // not reached: nullopt is elided
  }
};

template <>
struct Scalar<net::DataRate> {
  static void read(const JsonValue& x, const Path& at, net::DataRate& v) {
    v = rate_at(string_at(x, at), at);
  }
  static JsonValue write(net::DataRate v) { return JsonValue::make_string(format_rate(v)); }
};

template <typename T>
struct Choice {
  std::string_view name;
  T value;
};

/// An enum spelled as one of the names in the array `C` of Choice.
template <const auto& C>
struct Named {
  template <typename T>
  static void read(const JsonValue& x, const Path& at, T& v) {
    const std::string& name = string_at(x, at);
    std::string expected;
    for (const auto& c : C) {
      if (c.name == name) {
        v = c.value;
        return;
      }
      expected += (expected.empty() ? "\"" : ", \"") + std::string{c.name} + "\"";
    }
    fail(SpecError::Code::kBadValue, at, x.line,
         "unknown value '" + name + "' (expected one of " + expected + ")");
  }
  template <typename T>
  static JsonValue write(const T& v) {
    for (const auto& c : C)
      if (c.value == v) return JsonValue::make_string(std::string{c.name});
    return JsonValue::make_null();  // not reached for a value C can spell
  }
};

/// A nested object, written when it holds a key.
template <const auto& Table>
struct Object {
  template <typename T>
  static void read(const JsonValue& x, const Path& at, T& v) {
    read_object<Table>(x, at, v);
  }
  template <typename T>
  static JsonValue write(const T& v) {
    return write_object<Table>(v);
  }
  template <typename T>
  static void put(JsonValue& out, std::string_view key, const T& v, bool always) {
    JsonValue o = write_object<Table>(v);
    if (always || !o.object.empty()) out.object.emplace_back(key, std::move(o));
  }
  static void list(const std::string& path, std::vector<std::string>& out) {
    list_fields<Table>(path + ".", out);
  }
};

/// Reads an array through `Derived::resize` and `Derived::read_element`,
/// which sweep expansion also calls to read one element at a time.
template <typename Derived>
struct Elementwise {
  template <typename T>
  static void read(const JsonValue& x, const Path& at, T& v) {
    if (!x.is_array()) fail(SpecError::Code::kWrongType, at, x.line, "expected an array");
    Derived::resize(v, x.array.size());
    for (std::size_t i = 0; i < x.array.size(); ++i) Derived::read_element(x.array[i], at, i, v);
  }
};

/// An array, written unless empty.
template <typename Elem>
struct ArrayOf : Elementwise<ArrayOf<Elem>> {
  template <typename T>
  static void resize(std::vector<T>& v, std::size_t n) {
    v.resize(n);
  }
  template <typename T>
  static void read_element(const JsonValue& x, const Path& at, std::size_t i, std::vector<T>& v) {
    T element{};
    Elem::read(x, at[i], element);
    v[i] = std::move(element);
  }
  template <typename T>
  static void put(JsonValue& out, std::string_view key, const std::vector<T>& v, bool always) {
    if (!always && v.empty()) return;
    JsonValue a = JsonValue::make_array();
    a.array.reserve(v.size());
    for (const T& e : v) a.array.push_back(Elem::write(e));
    out.object.emplace_back(key, std::move(a));
  }
  static void list(const std::string& path, std::vector<std::string>& out) {
    if constexpr (requires { Elem::list(path, out); }) Elem::list(path + "[]", out);
  }
};

/// A block whose presence sets the owner's `Flag` and whose keys are more of
/// the owner's fields; a set flag is written, as {} when they are defaults.
template <auto Flag, const auto& Table>
struct Flagged : Object<Table> {
  template <typename T>
  static void read(const JsonValue& x, const Path& at, T& owner) {
    owner.*Flag = true;
    read_object<Table>(x, at, owner);
  }
  template <typename T>
  static void put(JsonValue& out, std::string_view key, const T& owner, bool) {
    if (owner.*Flag) out.object.emplace_back(key, write_object<Table>(owner));
  }
};

/// A registered congestion-control variant name.
struct CcName {
  static void read(const JsonValue& x, const Path& at, std::string& v) {
    v = string_at(x, at);
    try {
      (void)factory_by_name(v);
    } catch (const std::invalid_argument&) {
      std::string known;
      for (const auto& n : variant_names()) known += (known.empty() ? "" : ", ") + n;
      fail(SpecError::Code::kBadValue, at, x.line,
           "unknown congestion-control variant '" + v + "' (known: " + known + ")");
    }
  }
  static JsonValue write(const std::string& v) { return JsonValue::make_string(v); }
};

/// A sweep axis's values: a non-empty array of scalars, kept as JSON.
struct AxisValues {
  static void read(const JsonValue& x, const Path& at, std::vector<JsonValue>& v) {
    if (!x.is_array()) fail(SpecError::Code::kWrongType, at, x.line, "expected an array");
    if (x.array.empty()) fail(SpecError::Code::kBadSweep, at, x.line, "sweep axis has no values");
    for (const auto& value : x.array)
      if (value.is_array() || value.is_object())
        fail(SpecError::Code::kBadSweep, at, value.line, "sweep values must be scalars");
    v = x.array;
  }
  static void put(JsonValue& out, std::string_view key, const std::vector<JsonValue>& v, bool) {
    JsonValue a = JsonValue::make_array();
    a.array = v;
    out.object.emplace_back(key, std::move(a));
  }
};

// --- the tables -----------------------------------------------------------

constexpr Rule kAtLeastOne{[](auto n) { return n >= 1; }, "must be >= 1"};
constexpr Rule kPositiveTime{[](sim::Time t) { return t > sim::Time::zero(); }, "must be > 0"};

using RedOptions = net::RedQueue::Options;
constexpr auto kRedFields = std::tuple{
    field("min_threshold", &RedOptions::min_threshold),
    field("max_threshold", &RedOptions::max_threshold),
    field("max_drop_probability", &RedOptions::max_drop_probability),
    field("queue_weight", &RedOptions::queue_weight)
        .must(Rule{[](double w) { return w > 0.0 && w <= 1.0; }, "must be in (0, 1]"}),
};

using CodelOptions = net::CodelQueue::Options;
constexpr auto kCodelFields = std::tuple{
    field("target", &CodelOptions::target).must(kPositiveTime),
    field("interval", &CodelOptions::interval).must(kPositiveTime),
};

constexpr Choice<QueueDiscipline> kQdiscs[] = {{"droptail", QueueDiscipline::kDropTail},
                                               {"red", QueueDiscipline::kRed},
                                               {"codel", QueueDiscipline::kCodel}};

constexpr auto kDeviceFields = std::tuple{
    field("rate", &DeviceSpec::rate),
    field("ifq_packets", &DeviceSpec::ifq_packets).must(kAtLeastOne),
    field("qdisc", &DeviceSpec::qdisc, Named<kQdiscs>{}),
    field("red", &DeviceSpec::red, Object<kRedFields>{})
        .only_if(Rule{[](const DeviceSpec& d) { return d.qdisc == QueueDiscipline::kRed; },
                      "requires \"qdisc\": \"red\""})
        .must(Rule{[](const RedOptions& r) { return r.min_threshold < r.max_threshold; },
                   "min_threshold must be < max_threshold"}),
    field("codel", &DeviceSpec::codel, Object<kCodelFields>{})
        .only_if(Rule{[](const DeviceSpec& d) { return d.qdisc == QueueDiscipline::kCodel; },
                      "requires \"qdisc\": \"codel\""}),
    field("ecn_threshold", &DeviceSpec::ecn_threshold),
    field("name", &DeviceSpec::name),
};

constexpr auto kLinkFields = std::tuple{
    field("a", &LinkSpec::a).required(),
    field("b", &LinkSpec::b).required(),
    field("delay", &LinkSpec::delay).always(),
    field("a_dev", &LinkSpec::a_dev, Object<kDeviceFields>{}),
    field("b_dev", &LinkSpec::b_dev, Object<kDeviceFields>{}),
};

using RttOptions = tcp::RttEstimator::Options;
constexpr auto kRttFields = std::tuple{
    field("initial_rto", &RttOptions::initial_rto),
    field("min_rto", &RttOptions::min_rto),
    field("max_rto", &RttOptions::max_rto),
    field("alpha", &RttOptions::alpha),
    field("beta", &RttOptions::beta),
    field("k", &RttOptions::k),
};

using SenderOptions = tcp::TcpSender::Options;
constexpr auto kSenderFields = std::tuple{
    field("mss", &SenderOptions::mss).must(kAtLeastOne),
    field("initial_seq", &SenderOptions::initial_seq),
    field("rwnd_limit_bytes", &SenderOptions::rwnd_limit_bytes),
    field("stall_retry_delay", &SenderOptions::stall_retry_delay),
    field("enable_sack", &SenderOptions::enable_sack),
    field("cwnd_validation", &SenderOptions::cwnd_validation),
    field("trace_cwnd", &SenderOptions::trace_cwnd),
    field("trace_stalls", &SenderOptions::trace_stalls),
    field("rtt", &SenderOptions::rtt, Object<kRttFields>{}),
};

using ReceiverOptions = tcp::TcpReceiver::Options;
constexpr auto kReceiverFields = std::tuple{
    field("initial_seq", &ReceiverOptions::initial_seq),
    field("advertised_window", &ReceiverOptions::advertised_window),
    field("ack_every", &ReceiverOptions::ack_every).must(kAtLeastOne),
    field("delayed_ack_timeout", &ReceiverOptions::delayed_ack_timeout),
    field("enable_sack", &ReceiverOptions::enable_sack),
    field("quickack_segments", &ReceiverOptions::quickack_segments),
};

constexpr auto kWeb100Fields = std::tuple{
    field("poll", &FlowDoc::web100_poll_period).must(kPositiveTime),
};

constexpr auto kFluidFields = std::tuple{
    field("initial_rate", &net::FluidOptions::initial_rate),
    field("peak_rate", &net::FluidOptions::peak_rate),
    field("stride", &net::FluidOptions::stride).must(kPositiveTime),
    field("packet_bytes", &net::FluidOptions::packet_bytes).must(kAtLeastOne),
    field("rtt", &net::FluidOptions::rtt),
    field("decrease", &net::FluidOptions::decrease)
        .must(Rule{[](double d) { return d > 0.0 && d < 1.0; }, "must be in (0, 1)"}),
};

constexpr Choice<TrafficModel> kModels[] = {{"packet", TrafficModel::kPacket},
                                            {"fluid", TrafficModel::kFluid}};

// A fluid aggregate has no TCP machinery: its packet-only keys are errors,
// not silently ignored.
constexpr Rule kPacketOnly{[](const FlowSpec& f) { return f.model == TrafficModel::kPacket; },
                           "is packet-only; a fluid flow takes its dynamics from \"fluid\""};

constexpr auto kFlowFields = std::tuple{
    field("src", &FlowDoc::src).required(),
    field("dst", &FlowDoc::dst).required(),
    field("id", &FlowDoc::flow_id),
    field("start", &FlowDoc::start),
    field("model", &FlowDoc::model, Named<kModels>{}),
    field("fluid", &FlowDoc::fluid, Object<kFluidFields>{})
        .only_if(Rule{[](const FlowSpec& f) { return f.model == TrafficModel::kFluid; },
                      "requires \"model\": \"fluid\""}),
    field("cc", &FlowDoc::cc, CcName{}).always().only_if(kPacketOnly),
    field("ecn", &FlowDoc::ecn).only_if(kPacketOnly),
    field("sender", &FlowDoc::sender, Object<kSenderFields>{}).only_if(kPacketOnly),
    field("receiver", &FlowDoc::receiver, Object<kReceiverFields>{}).only_if(kPacketOnly),
    field("web100", kSelf, Flagged<&FlowDoc::web100, kWeb100Fields>{}).only_if(kPacketOnly),
};

constexpr Choice<sim::QueueBackend> kBackends[] = {
    {"binary_heap", sim::QueueBackend::kBinaryHeap},
    {"calendar_queue", sim::QueueBackend::kCalendarQueue}};

constexpr Choice<PartitionStrategy> kStrategies[] = {{"auto", PartitionStrategy::kAuto},
                                                     {"block", PartitionStrategy::kBlock}};

constexpr auto kExecutionFields = std::tuple{
    field("backend", &ExecutionPolicy::backend, Named<kBackends>{}),
    field("partitions", &ExecutionPolicy::partitions).must(kAtLeastOne),
    field("strategy", &ExecutionPolicy::strategy, Named<kStrategies>{}),
    field("threads", &ExecutionPolicy::threads),
};

constexpr auto kRunFields = std::tuple{
    field("duration", &RunSpec::duration),
    field("measure_start", &RunSpec::measure_start),
};

constexpr Choice<SweepSpec::Mode> kSweepModes[] = {{"grid", SweepSpec::Mode::kGrid},
                                                   {"zip", SweepSpec::Mode::kZip}};

constexpr auto kAxisFields = std::tuple{
    field("field", &SweepAxis::field).required(),
    field("values", &SweepAxis::values, AxisValues{}).required(),
};

constexpr auto kSweepFields = std::tuple{
    field("mode", &SweepSpec::mode, Named<kSweepModes>{}),
    field("axes", &SweepSpec::axes, ArrayOf<Object<kAxisFields>>{}).required(),
};

/// The sweep block, written when it has axes.
struct SweepBlock : Object<kSweepFields> {
  static void put(JsonValue& out, std::string_view key, const SweepSpec& v, bool) {
    if (!v.empty()) out.object.emplace_back(key, write_object<kSweepFields>(v));
  }
};

/// The top-level "flows": each element reads as a FlowDoc, whose cc goes to
/// ScenarioSpec::flow_cc and the rest to topology.flows.
struct Flows : Elementwise<Flows> {
  static void resize(ScenarioSpec& s, std::size_t n) {
    s.topology.flows.resize(n);
    s.flow_cc.resize(n);
  }
  static void read_element(const JsonValue& x, const Path& at, std::size_t i, ScenarioSpec& s) {
    FlowDoc flow;
    read_object<kFlowFields>(x, at[i], flow);
    s.flow_cc[i] = std::move(flow.cc);
    s.topology.flows[i] = std::move(static_cast<FlowSpec&>(flow));
  }
  static void put(JsonValue& out, std::string_view key, const ScenarioSpec& s, bool) {
    const auto& flows = s.topology.flows;
    if (flows.empty()) return;
    JsonValue a = JsonValue::make_array();
    a.array.reserve(flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const FlowDoc flow{flows[i], i < s.flow_cc.size() ? s.flow_cc[i] : "reno"};
      a.array.push_back(write_object<kFlowFields>(flow));
    }
    out.object.emplace_back(key, std::move(a));
  }
  static void list(const std::string& path, std::vector<std::string>& out) {
    list_fields<kFlowFields>(path + "[].", out);
  }
};

/// The accessor of a ScenarioSpec's topology member `M`.
template <auto M>
constexpr auto kTopology = [](auto& s) -> auto& { return s.topology.*M; };

/// The top level. Sweep expansion re-reads single members of it (kMembers).
constexpr auto kScenarioFields = std::tuple{
    field("name", &ScenarioSpec::name),
    field("seed", kTopology<&TopologySpec::seed>),
    field("execution", kTopology<&TopologySpec::execution>, Object<kExecutionFields>{}),
    field("nodes", kTopology<&TopologySpec::nodes>, ArrayOf<Scalar<std::string>>{}).required(),
    field("links", kTopology<&TopologySpec::links>, ArrayOf<Object<kLinkFields>>{}),
    field("flows", kSelf, Flows{}),
    field("run", &ScenarioSpec::run, Object<kRunFields>{}),
    field("sweep", &ScenarioSpec::sweep, SweepBlock{}),
};

// --- walking a table ------------------------------------------------------

template <typename Owner, typename F>
void read_field(const F& f, const JsonValue& object, const Path& path, Owner& out) {
  const JsonValue* x = object.find(f.key);
  if (!x) {
    if (f.presence == Presence::kRequired)
      fail(SpecError::Code::kMissingField, path / f.key, object.line, "missing required field");
    return;
  }
  const Path at = path / f.key;
  if (!f.guard.ok(out))
    fail(SpecError::Code::kBadValue, at, x->line,
         "\"" + std::string{f.key} + "\" " + std::string{f.guard.what});
  auto& value = std::invoke(f.get, out);
  CodecOf<F, Owner>::read(*x, at, value);
  if (!f.check.ok(value)) fail(SpecError::Code::kBadValue, at, x->line, std::string{f.check.what});
}

template <typename Owner, typename F>
void write_field(const F& f, const Owner& owner, const Owner& def, JsonValue& out) {
  if (!f.guard.ok(owner)) return;
  using C = CodecOf<F, Owner>;
  const auto& value = std::invoke(f.get, owner);
  const bool always = f.presence != Presence::kOptional;
  if constexpr (requires { C::put(out, f.key, value, always); }) {
    C::put(out, f.key, value, always);
  } else {
    if (!always && value == std::invoke(f.get, def)) return;
    out.object.emplace_back(f.key, C::write(value));
  }
}

template <typename F>
void list_field(const F& f, const std::string& prefix, std::vector<std::string>& out) {
  const std::string path = prefix + std::string{f.key};
  out.push_back(path);
  using C = decltype(F::codec);
  if constexpr (requires { C::list(path, out); }) C::list(path, out);
}

/// Checks an object's fields together, after they are read and before its
/// unknown keys are: only a zip sweep has such a check.
void check_object(const auto&, const JsonValue&, const Path&) {}

void check_object(const SweepSpec& sweep, const JsonValue& v, const Path& path) {
  if (sweep.mode != SweepSpec::Mode::kZip || sweep.axes.empty()) return;
  const std::size_t len = sweep.axes.front().values.size();
  for (const auto& axis : sweep.axes) {
    if (axis.values.size() != len)
      fail(SpecError::Code::kBadSweep, path / "axes", v.line,
           "zip sweep axes must have equal lengths (axis '" + sweep.axes.front().field +
               "' has " + std::to_string(len) + ", axis '" + axis.field + "' has " +
               std::to_string(axis.values.size()) + ")");
  }
}

/// Reads every key of `Table` in order into `out`, which holds defaults,
/// then rejects the first key the table does not have, so typos
/// ("ifq_pakcets") fail with kUnknownField instead of running the default.
template <const auto& Table, typename Owner>
void read_object(const JsonValue& v, const Path& path, Owner& out) {
  if (v.type != JsonValue::Type::kObject)
    fail(SpecError::Code::kWrongType, path, v.line, "expected an object");
  std::apply([&](const auto&... f) { (read_field(f, v, path, out), ...); }, Table);
  check_object(out, v, path);
  for (const auto& [key, value] : v.object)
    if (!std::apply([&k = key](const auto&... f) { return ((f.key == k) || ...); }, Table))
      fail_unknown_field(path, key, value.line);
}

template <const auto& Table, typename Owner>
JsonValue write_object(const Owner& owner) {
  JsonValue out = JsonValue::make_object();
  const Owner& def = defaults<Owner>();
  std::apply([&](const auto&... f) { (write_field(f, owner, def, out), ...); }, Table);
  return out;
}

template <const auto& Table>
void list_fields(const std::string& prefix, std::vector<std::string>& out) {
  std::apply([&](const auto&... f) { (list_field(f, prefix, out), ...); }, Table);
}

// --- the scenario document ------------------------------------------------

/// One top-level member of a scenario document, for sweep expansion, which
/// re-runs the reads of the members its axes write on a copy of the base
/// result. `read` reads the member from `object` into the spec's part,
/// which holds its default. Array members can also be read element by
/// element: `resize` sizes the spec's part and `element` reads one element
/// into its slot.
struct Member {
  std::string_view key;
  void (*read)(const JsonValue& object, ScenarioSpec& s);
  void (*resize)(ScenarioSpec& s, std::size_t n){nullptr};
  void (*element)(const JsonValue& x, std::size_t i, ScenarioSpec& s){nullptr};
};

template <std::size_t I>
using MemberCodec =
    CodecOf<std::remove_cvref_t<decltype(std::get<I>(kScenarioFields))>, ScenarioSpec>;

template <std::size_t I>
[[nodiscard]] auto& member_part(ScenarioSpec& s) {
  return std::invoke(std::get<I>(kScenarioFields).get, s);
}

template <std::size_t I>
void read_member(const JsonValue& object, ScenarioSpec& s) {
  read_field(std::get<I>(kScenarioFields), object, Path{}, s);
}

template <std::size_t I>
void resize_member(ScenarioSpec& s, std::size_t n) {
  MemberCodec<I>::resize(member_part<I>(s), n);
}

template <std::size_t I>
void read_member_element(const JsonValue& x, std::size_t i, ScenarioSpec& s) {
  const Path root;
  MemberCodec<I>::read_element(x, root / std::get<I>(kScenarioFields).key, i,
                               member_part<I>(s));
}

template <std::size_t I>
[[nodiscard]] constexpr Member member() {
  const std::string_view key = std::get<I>(kScenarioFields).key;
  if constexpr (requires(ScenarioSpec& s) { MemberCodec<I>::resize(member_part<I>(s), 0); })
    return {key, &read_member<I>, &resize_member<I>, &read_member_element<I>};
  else
    return {key, &read_member<I>};
}

template <std::size_t... Is>
[[nodiscard]] constexpr std::array<Member, sizeof...(Is)> members(std::index_sequence<Is...>) {
  return {member<Is>()...};
}

constexpr auto kMembers =
    members(std::make_index_sequence<std::tuple_size_v<decltype(kScenarioFields)>>{});

[[nodiscard]] const Member* find_member(std::string_view key) {
  for (const Member& m : kMembers)
    if (m.key == key) return &m;
  return nullptr;
}

}  // namespace

// --- ScenarioSpec parse/serialize -----------------------------------------

std::size_t SweepSpec::point_count() const {
  if (axes.empty()) return 1;
  if (mode == Mode::kZip) return axes.front().values.size();
  // Every point is held at once, so the grid must fit in one vector.
  const std::size_t limit = std::vector<SweepPoint>{}.max_size();
  std::size_t count = 1;
  for (const auto& axis : axes) {
    const std::size_t n = axis.values.size();
    if (n != 0 && count > limit / n)
      fail(SpecError::Code::kBadSweep, "sweep.axes", 0,
           "sweep grid of " + std::to_string(axes.size()) + " axes has more than " +
               std::to_string(limit) + " points");
    count *= n;
  }
  return count;
}

ScenarioSpec parse_scenario_spec(const JsonValue& document) {
  ScenarioSpec s = defaults<ScenarioSpec>();
  read_object<kScenarioFields>(document, Path{}, s);
  return s;
}

ScenarioSpec parse_scenario_spec(std::string_view json_text) {
  return parse_scenario_spec(json_parse(json_text));
}

std::string read_spec_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot open spec file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

ScenarioSpec load_scenario_spec(const std::string& path) {
  return parse_scenario_spec(read_spec_file(path));
}

void check_scenario_spec(const ScenarioSpec& spec) {
  validate_topology(spec.topology);
  const RouteTable routes = compute_routes(spec.topology);
  for (const auto& flow : spec.topology.flows) {
    const std::size_t src = *node_index(spec.topology, flow.src);
    const std::size_t dst = *node_index(spec.topology, flow.dst);
    if (!routes.reachable(src, dst))
      throw TopologyError(TopologyError::Code::kUnroutableFlow,
                          "topology: no path from '" + flow.src + "' to '" + flow.dst + "'");
  }
}

JsonValue scenario_spec_to_json(const ScenarioSpec& spec) {
  return write_object<kScenarioFields>(spec);
}

std::string serialize_scenario_spec(const ScenarioSpec& spec) {
  return json_serialize(scenario_spec_to_json(spec));
}

std::vector<std::string> schema_fields() {
  std::vector<std::string> fields;
  list_fields<kScenarioFields>("", fields);
  return fields;
}

// --- sweep expansion ------------------------------------------------------

namespace {

/// One step of a sweep field path: an object key, or an index into the
/// array under `key`. "flows[0].cc" is key flows, index 0, key cc.
struct PathStep {
  std::string key;
  std::optional<std::size_t> index;
};

[[nodiscard]] std::vector<PathStep> parse_field_path(const std::string& path) {
  std::vector<PathStep> steps;
  std::size_t i = 0;
  while (i < path.size()) {
    std::string key;
    while (i < path.size() && path[i] != '.' && path[i] != '[') key.push_back(path[i++]);
    if (key.empty())
      fail(SpecError::Code::kBadSweep, path, 0, "malformed sweep field path");
    steps.push_back({key, std::nullopt});
    while (i < path.size() && path[i] == '[') {
      const std::size_t first = ++i;
      while (i < path.size() && std::isdigit(static_cast<unsigned char>(path[i]))) ++i;
      if (i == first || i >= path.size() || path[i] != ']')
        fail(SpecError::Code::kBadSweep, path, 0, "malformed sweep field path");
      std::size_t index = 0;
      if (std::from_chars(path.data() + first, path.data() + i, index).ec != std::errc{})
        fail(SpecError::Code::kBadSweep, path, 0,
             "sweep path index " + path.substr(first, i - first) + " is out of range");
      steps.push_back({key, index});
      ++i;  // ']'
    }
    if (i < path.size()) {
      if (path[i] != '.')
        fail(SpecError::Code::kBadSweep, path, 0, "malformed sweep field path");
      ++i;
      if (i == path.size())
        fail(SpecError::Code::kBadSweep, path, 0, "malformed sweep field path");
    }
  }
  if (steps.empty()) fail(SpecError::Code::kBadSweep, path, 0, "empty sweep field path");
  return steps;
}

/// Write `value` at `path` (parsed into `steps`), walking from `root` at
/// step `from`. Every intermediate step must already exist; the final step
/// may create a new object key (so an axis can sweep a field the base spec
/// leaves at its default), but array indices always have to resolve.
void write_at_path(JsonValue& root, const std::string& path, const std::vector<PathStep>& steps,
                   std::size_t from, const JsonValue& value) {
  JsonValue* at = &root;
  for (std::size_t k = from; k < steps.size(); ++k) {
    const PathStep& step = steps[k];
    if (step.index) {
      if (!at->is_array() || *step.index >= at->array.size())
        fail(SpecError::Code::kBadSweep, path, 0,
             "sweep path does not resolve (bad index " + std::to_string(*step.index) +
                 " under '" + step.key + "')");
      at = &at->array[*step.index];
      continue;
    }
    JsonValue* next = at->find(step.key);
    if (!next) {
      if (!at->is_object())
        fail(SpecError::Code::kBadSweep, path, 0,
             "sweep path does not resolve (no object at '" + step.key + "')");
      if (k + 1 == steps.size()) {
        at->set(step.key, value);
        return;
      }
      fail(SpecError::Code::kBadSweep, path, 0,
           "sweep path does not resolve (missing field '" + step.key + "')");
    }
    at = next;
  }
  *at = value;
}

/// Render an axis value for table/label use: numbers and booleans as their
/// literal, strings unquoted.
[[nodiscard]] std::string scalar_text(const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kString:
      return v.string;
    case JsonValue::Type::kNumber:
      return v.number;
    case JsonValue::Type::kBool:
      return v.boolean ? "true" : "false";
    default:
      return "null";
  }
}

/// Where a part of the document is read in parse_scenario_spec's order:
/// (member, 0) for a whole member or an array member's type check,
/// (member, i + 1) for element i.
using ParsePosition = std::pair<std::size_t, std::size_t>;

/// A part of the document that sweep axes write: a top-level member, or one
/// element of an array member that the base document holds. Every point
/// starts from a copy of the base document's part, writes its axis values
/// into it in axis order, and re-reads only that part of the spec.
struct WrittenPart {
  std::string key;
  const Member* member;                ///< nullptr for a key the schema does not know
  std::optional<std::size_t> element;  ///< the element, for an element of an array member
  const JsonValue* base;               ///< the base document's value; nullptr when absent
  /// This point's copy: the element, or an object holding just the member.
  JsonValue value;

  void reset(int document_line) {
    if (element) {
      value = *base;
      return;
    }
    value = JsonValue::make_object();
    value.line = document_line;
    if (base) value.object.emplace_back(key, *base);
  }

  void write(const std::string& path, const std::vector<PathStep>& steps, const JsonValue& v) {
    // An element's copy sits below the path's key and index steps.
    write_at_path(value, path, steps, element ? 2 : 0, v);
  }

  [[nodiscard]] ParsePosition position() const {
    return {static_cast<std::size_t>(member - kMembers.data()), element ? *element + 1 : 0};
  }

  void read(ScenarioSpec& s) const {
    if (element) {
      member->element(value, *element, s);
      return;
    }
    member->read(value, s);
  }

  /// A whole member's value after this point's writes.
  [[nodiscard]] const JsonValue& written() const { return *value.find(key); }
};

/// One axis's write: its parsed path and the part it writes, or the error
/// its malformed path raises when the axis's turn comes.
struct AxisWrite {
  std::vector<PathStep> steps;
  std::size_t part{0};
  std::exception_ptr bad_path;
};

/// The element of an array member that `steps` writes into, when the base
/// document holds that element; nullopt when the axis writes a whole member.
[[nodiscard]] std::optional<std::size_t> element_written(const std::vector<PathStep>& steps,
                                                         const JsonValue* base) {
  const Member* member = find_member(steps.front().key);
  if (!member || !member->element || steps.size() < 2 || !steps[1].index || !base ||
      !base->is_array() || *steps[1].index >= base->array.size())
    return std::nullopt;
  return steps[1].index;
}

/// The members no axis writes, read once from the document. A read error is
/// kept with its position rather than thrown, because a point whose own
/// parts fail earlier in parse order must report its own error.
struct BaseParse {
  ScenarioSpec spec = defaults<ScenarioSpec>();
  std::exception_ptr error;
  ParsePosition error_at;
};

[[nodiscard]] BaseParse parse_base(const JsonValue& document,
                                   const std::vector<WrittenPart>& parts) {
  BaseParse base;
  for (std::size_t m = 0; m < std::size(kMembers); ++m) {
    const Member& member = kMembers[m];
    // A point has no sweep of its own, so it keeps the default.
    bool whole = member.key == "sweep";
    std::vector<std::size_t> elements;
    for (const WrittenPart& part : parts) {
      if (part.member != &member) continue;
      if (part.element) elements.push_back(*part.element);
      else whole = true;
    }
    if (whole) continue;
    std::size_t at = 0;
    try {
      if (elements.empty()) {
        member.read(document, base.spec);
        continue;
      }
      // Element parts exist only where the base member is an array.
      const JsonValue& array = *document.find(member.key);
      member.resize(base.spec, array.array.size());
      for (std::size_t i = 0; i < array.array.size(); ++i) {
        at = i + 1;
        if (std::find(elements.begin(), elements.end(), i) == elements.end())
          member.element(array.array[i], i, base.spec);
      }
    } catch (...) {
      base.error = std::current_exception();
      base.error_at = {m, at};
      break;
    }
  }
  return base;
}

/// Rejects a point's first top-level key the schema does not know, as
/// read_object would: the base document's keys in order, then the
/// keys the axes created, in the order they created them.
void check_point_keys(const JsonValue& document, const std::vector<WrittenPart>& parts) {
  for (const auto& [key, value] : document.object) {
    if (find_member(key)) continue;
    const auto part = std::find_if(parts.begin(), parts.end(),
                                   [&](const WrittenPart& p) { return p.key == key; });
    fail_unknown_field(Path{}, key, part != parts.end() ? part->written().line : value.line);
  }
  for (const WrittenPart& part : parts)
    if (!part.member && !part.base) fail_unknown_field(Path{}, part.key, part.written().line);
}

}  // namespace

std::vector<SweepPoint> expand_scenario_spec(const JsonValue& document) {
  if (document.type != JsonValue::Type::kObject)
    fail(SpecError::Code::kWrongType, "", document.line, "expected a JSON object");

  const JsonValue* sweep_json = document.find("sweep");
  if (!sweep_json) {
    SweepPoint point;
    point.spec = parse_scenario_spec(document);
    return {std::move(point)};
  }
  SweepSpec sweep;
  const Path root;
  read_object<kSweepFields>(*sweep_json, root / "sweep", sweep);
  const std::size_t points = sweep.point_count();

  // Each point is the base document (everything except the sweep block)
  // with the axis values written in, and reads exactly as that document
  // written out by hand would. Only the parts the axes write differ from
  // the base, so those are re-read per point and the rest is read once.
  const auto base_member = [&](std::string_view key) {
    return key == "sweep" ? nullptr : document.find(key);
  };
  // A member some axis writes whole is one part, even where other axes
  // write single elements of it.
  std::vector<AxisWrite> writes(sweep.axes.size());
  std::set<std::string, std::less<>> whole;
  for (std::size_t a = 0; a < writes.size(); ++a) {
    try {
      writes[a].steps = parse_field_path(sweep.axes[a].field);
    } catch (const SpecError&) {
      writes[a].bad_path = std::current_exception();
      continue;
    }
    const std::string& key = writes[a].steps.front().key;
    if (!element_written(writes[a].steps, base_member(key))) whole.insert(key);
  }
  std::vector<WrittenPart> parts;
  for (AxisWrite& w : writes) {
    if (w.bad_path) continue;
    const std::string& key = w.steps.front().key;
    const JsonValue* base = base_member(key);
    const auto element = whole.count(key) ? std::nullopt : element_written(w.steps, base);
    const auto same = [&](const WrittenPart& p) { return p.key == key && p.element == element; };
    const auto it = std::find_if(parts.begin(), parts.end(), same);
    w.part = static_cast<std::size_t>(it - parts.begin());
    if (w.part == parts.size()) {
      const JsonValue* base_part = element ? &base->array[*element] : base;
      parts.push_back({key, find_member(key), element, base_part, {}});
    }
  }
  std::vector<const WrittenPart*> reads;
  for (const WrittenPart& part : parts)
    if (part.member) reads.push_back(&part);
  std::sort(reads.begin(), reads.end(), [](const WrittenPart* a, const WrittenPart* b) {
    return a->position() < b->position();
  });
  const BaseParse base = parse_base(document, parts);

  std::vector<SweepPoint> expanded;
  expanded.reserve(points);
  for (std::size_t p = 0; p < points; ++p) {
    // Map the flat point index to one index per axis: zip advances all axes
    // together; grid runs the last axis fastest (odometer order).
    std::vector<std::size_t> select(sweep.axes.size(), p);
    if (sweep.mode == SweepSpec::Mode::kGrid) {
      std::size_t rem = p;
      for (std::size_t a = sweep.axes.size(); a-- > 0;) {
        select[a] = rem % sweep.axes[a].values.size();
        rem /= sweep.axes[a].values.size();
      }
    }
    for (WrittenPart& part : parts) part.reset(document.line);
    SweepPoint point;
    for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
      if (writes[a].bad_path) std::rethrow_exception(writes[a].bad_path);
      const JsonValue& value = sweep.axes[a].values[select[a]];
      parts[writes[a].part].write(sweep.axes[a].field, writes[a].steps, value);
      point.assignment.emplace_back(sweep.axes[a].field, scalar_text(value));
    }
    point.spec = base.spec;
    for (const WrittenPart* part : reads) {
      if (base.error && base.error_at < part->position()) std::rethrow_exception(base.error);
      part->read(point.spec);
    }
    if (base.error) std::rethrow_exception(base.error);
    check_point_keys(document, parts);
    expanded.push_back(std::move(point));
  }
  return expanded;
}

std::vector<SweepPoint> expand_scenario_spec(std::string_view json_text) {
  return expand_scenario_spec(json_parse(json_text));
}

}  // namespace rss::scenario::spec
