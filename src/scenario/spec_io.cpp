#include "scenario/spec_io.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <system_error>
#include <unordered_set>

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

[[nodiscard]] std::string sub(const std::string& base, std::string_view key) {
  if (base.empty()) return std::string{key};
  return base + "." + std::string{key};
}

[[nodiscard]] std::string idx(const std::string& base, std::size_t i) {
  return base + "[" + std::to_string(i) + "]";
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
  if (type != Type::kNumber)
    fail(SpecError::Code::kWrongType, field, line, "expected a number");
  return std::strtod(number.c_str(), nullptr);
}

std::uint64_t JsonValue::as_u64(const std::string& field) const {
  if (type != Type::kNumber)
    fail(SpecError::Code::kWrongType, field, line, "expected a number");
  if (number.find_first_of(".eE-") != std::string::npos)
    fail(SpecError::Code::kBadValue, field, line,
         "expected a non-negative integer, got '" + number + "'");
  errno = 0;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(number.c_str(), &end, 10);
  if (errno == ERANGE || end != number.c_str() + number.size())
    fail(SpecError::Code::kBadValue, field, line,
         "integer out of range: '" + number + "'");
  return v;
}

std::int64_t JsonValue::as_i64(const std::string& field) const {
  if (type != Type::kNumber)
    fail(SpecError::Code::kWrongType, field, line, "expected a number");
  if (number.find_first_of(".eE") != std::string::npos)
    fail(SpecError::Code::kBadValue, field, line,
         "expected an integer, got '" + number + "'");
  errno = 0;
  char* end = nullptr;
  const std::int64_t v = std::strtoll(number.c_str(), &end, 10);
  if (errno == ERANGE || end != number.c_str() + number.size())
    fail(SpecError::Code::kBadValue, field, line,
         "integer out of range: '" + number + "'");
  return v;
}

bool JsonValue::as_bool(const std::string& field) const {
  if (type != Type::kBool)
    fail(SpecError::Code::kWrongType, field, line, "expected true or false");
  return boolean;
}

const std::string& JsonValue::as_string(const std::string& field) const {
  if (type != Type::kString)
    fail(SpecError::Code::kWrongType, field, line, "expected a string");
  return string;
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
double split_unit(const std::string& text, const std::string& field, std::string& suffix) {
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

}  // namespace

sim::Time parse_time(const std::string& text, const std::string& field) {
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

// --- strict object reader -------------------------------------------------

namespace {

[[noreturn]] void fail_unknown_field(const std::string& path, const std::string& key, int line) {
  fail(SpecError::Code::kUnknownField, sub(path, key), line, "unknown field \"" + key + "\"");
}

/// Wraps one JSON object for schema parsing: every key must be consumed by
/// opt()/req() before finish(), so typos ("ifq_pakcets") fail loudly with
/// kUnknownField instead of silently running the default.
class ObjectReader {
 public:
  ObjectReader(const JsonValue& v, std::string path) : v_{v}, path_{std::move(path)} {
    if (v.type != JsonValue::Type::kObject)
      fail(SpecError::Code::kWrongType, path_, v.line, "expected an object");
  }

  [[nodiscard]] const JsonValue* opt(std::string_view key) {
    consumed_.insert(std::string{key});
    return v_.find(key);
  }

  [[nodiscard]] const JsonValue& req(std::string_view key) {
    const JsonValue* v = opt(key);
    if (!v)
      fail(SpecError::Code::kMissingField, path_of(key), v_.line,
           "missing required field");
    return *v;
  }

  [[nodiscard]] std::string path_of(std::string_view key) const { return sub(path_, key); }

  void finish() const {
    for (const auto& [key, value] : v_.object)
      if (!consumed_.count(key)) fail_unknown_field(path_, key, value.line);
  }

 private:
  const JsonValue& v_;
  std::string path_;
  std::set<std::string, std::less<>> consumed_;
};

template <typename T>
[[nodiscard]] T as_checked_unsigned(const JsonValue& v, const std::string& field) {
  const std::uint64_t raw = v.as_u64(field);
  if (raw > std::numeric_limits<T>::max())
    fail(SpecError::Code::kBadValue, field, v.line, "value out of range");
  return static_cast<T>(raw);
}

// --- schema: parse --------------------------------------------------------

void parse_red_options(const JsonValue& v, const std::string& path, net::RedQueue::Options& red) {
  ObjectReader r{v, path};
  if (const auto* x = r.opt("min_threshold"))
    red.min_threshold = x->as_double(r.path_of("min_threshold"));
  if (const auto* x = r.opt("max_threshold"))
    red.max_threshold = x->as_double(r.path_of("max_threshold"));
  if (const auto* x = r.opt("max_drop_probability"))
    red.max_drop_probability = x->as_double(r.path_of("max_drop_probability"));
  if (const auto* x = r.opt("queue_weight"))
    red.queue_weight = x->as_double(r.path_of("queue_weight"));
  r.finish();
}

void parse_codel_options(const JsonValue& v, const std::string& path,
                         net::CodelQueue::Options& codel) {
  ObjectReader r{v, path};
  if (const auto* x = r.opt("target"))
    codel.target = parse_time(x->as_string(r.path_of("target")), r.path_of("target"));
  if (const auto* x = r.opt("interval"))
    codel.interval = parse_time(x->as_string(r.path_of("interval")), r.path_of("interval"));
  r.finish();
}

DeviceSpec parse_device(const JsonValue& v, const std::string& path) {
  ObjectReader r{v, path};
  DeviceSpec d;
  if (const auto* x = r.opt("rate"))
    d.rate = parse_rate(x->as_string(r.path_of("rate")), r.path_of("rate"));
  if (const auto* x = r.opt("ifq_packets"))
    d.ifq_packets = as_checked_unsigned<std::size_t>(*x, r.path_of("ifq_packets"));
  if (const auto* x = r.opt("qdisc")) {
    const std::string& q = x->as_string(r.path_of("qdisc"));
    if (q == "droptail") d.qdisc = QueueDiscipline::kDropTail;
    else if (q == "red") d.qdisc = QueueDiscipline::kRed;
    else if (q == "codel") d.qdisc = QueueDiscipline::kCodel;
    else
      fail(SpecError::Code::kBadValue, r.path_of("qdisc"), x->line,
           "unknown qdisc '" + q + "' (expected \"droptail\", \"red\", or \"codel\")");
  }
  if (const auto* x = r.opt("red")) {
    if (d.qdisc != QueueDiscipline::kRed)
      fail(SpecError::Code::kBadValue, r.path_of("red"), x->line,
           "red options require \"qdisc\": \"red\"");
    parse_red_options(*x, r.path_of("red"), d.red);
  }
  if (const auto* x = r.opt("codel")) {
    if (d.qdisc != QueueDiscipline::kCodel)
      fail(SpecError::Code::kBadValue, r.path_of("codel"), x->line,
           "codel options require \"qdisc\": \"codel\"");
    parse_codel_options(*x, r.path_of("codel"), d.codel);
  }
  if (const auto* x = r.opt("ecn_threshold"))
    d.ecn_threshold = as_checked_unsigned<std::size_t>(*x, r.path_of("ecn_threshold"));
  if (const auto* x = r.opt("name")) d.name = x->as_string(r.path_of("name"));
  r.finish();
  return d;
}

LinkSpec parse_link(const JsonValue& v, const std::string& path) {
  ObjectReader r{v, path};
  LinkSpec l;
  l.a = r.req("a").as_string(r.path_of("a"));
  l.b = r.req("b").as_string(r.path_of("b"));
  if (const auto* x = r.opt("delay"))
    l.delay = parse_time(x->as_string(r.path_of("delay")), r.path_of("delay"));
  if (const auto* x = r.opt("a_dev")) l.a_dev = parse_device(*x, r.path_of("a_dev"));
  if (const auto* x = r.opt("b_dev")) l.b_dev = parse_device(*x, r.path_of("b_dev"));
  r.finish();
  return l;
}

void parse_rtt_options(const JsonValue& v, const std::string& path,
                       tcp::RttEstimator::Options& rtt) {
  ObjectReader r{v, path};
  if (const auto* x = r.opt("initial_rto"))
    rtt.initial_rto = parse_time(x->as_string(r.path_of("initial_rto")), r.path_of("initial_rto"));
  if (const auto* x = r.opt("min_rto"))
    rtt.min_rto = parse_time(x->as_string(r.path_of("min_rto")), r.path_of("min_rto"));
  if (const auto* x = r.opt("max_rto"))
    rtt.max_rto = parse_time(x->as_string(r.path_of("max_rto")), r.path_of("max_rto"));
  if (const auto* x = r.opt("alpha")) rtt.alpha = x->as_double(r.path_of("alpha"));
  if (const auto* x = r.opt("beta")) rtt.beta = x->as_double(r.path_of("beta"));
  if (const auto* x = r.opt("k"))
    rtt.k = static_cast<int>(x->as_i64(r.path_of("k")));
  r.finish();
}

void parse_sender_options(const JsonValue& v, const std::string& path,
                          tcp::TcpSender::Options& o) {
  ObjectReader r{v, path};
  if (const auto* x = r.opt("mss"))
    o.mss = as_checked_unsigned<std::uint32_t>(*x, r.path_of("mss"));
  if (const auto* x = r.opt("initial_seq"))
    o.initial_seq = as_checked_unsigned<std::uint32_t>(*x, r.path_of("initial_seq"));
  if (const auto* x = r.opt("rwnd_limit_bytes"))
    o.rwnd_limit_bytes = x->as_u64(r.path_of("rwnd_limit_bytes"));
  if (const auto* x = r.opt("stall_retry_delay"))
    o.stall_retry_delay =
        parse_time(x->as_string(r.path_of("stall_retry_delay")), r.path_of("stall_retry_delay"));
  if (const auto* x = r.opt("enable_sack")) o.enable_sack = x->as_bool(r.path_of("enable_sack"));
  if (const auto* x = r.opt("cwnd_validation"))
    o.cwnd_validation = x->as_bool(r.path_of("cwnd_validation"));
  if (const auto* x = r.opt("trace_cwnd")) o.trace_cwnd = x->as_bool(r.path_of("trace_cwnd"));
  if (const auto* x = r.opt("trace_stalls"))
    o.trace_stalls = x->as_bool(r.path_of("trace_stalls"));
  if (const auto* x = r.opt("rtt")) parse_rtt_options(*x, r.path_of("rtt"), o.rtt);
  r.finish();
}

void parse_receiver_options(const JsonValue& v, const std::string& path,
                            tcp::TcpReceiver::Options& o) {
  ObjectReader r{v, path};
  if (const auto* x = r.opt("initial_seq"))
    o.initial_seq = as_checked_unsigned<std::uint32_t>(*x, r.path_of("initial_seq"));
  if (const auto* x = r.opt("advertised_window"))
    o.advertised_window = as_checked_unsigned<std::uint32_t>(*x, r.path_of("advertised_window"));
  if (const auto* x = r.opt("ack_every"))
    o.ack_every = static_cast<int>(x->as_i64(r.path_of("ack_every")));
  if (const auto* x = r.opt("delayed_ack_timeout"))
    o.delayed_ack_timeout = parse_time(x->as_string(r.path_of("delayed_ack_timeout")),
                                       r.path_of("delayed_ack_timeout"));
  if (const auto* x = r.opt("enable_sack")) o.enable_sack = x->as_bool(r.path_of("enable_sack"));
  if (const auto* x = r.opt("quickack_segments"))
    o.quickack_segments = x->as_u64(r.path_of("quickack_segments"));
  r.finish();
}

void parse_fluid_options(const JsonValue& v, const std::string& path, net::FluidOptions& o) {
  ObjectReader r{v, path};
  if (const auto* x = r.opt("initial_rate"))
    o.initial_rate = parse_rate(x->as_string(r.path_of("initial_rate")), r.path_of("initial_rate"));
  if (const auto* x = r.opt("peak_rate"))
    o.peak_rate = parse_rate(x->as_string(r.path_of("peak_rate")), r.path_of("peak_rate"));
  if (const auto* x = r.opt("stride"))
    o.stride = parse_time(x->as_string(r.path_of("stride")), r.path_of("stride"));
  if (const auto* x = r.opt("packet_bytes"))
    o.packet_bytes = as_checked_unsigned<std::uint32_t>(*x, r.path_of("packet_bytes"));
  if (const auto* x = r.opt("rtt"))
    o.rtt = parse_time(x->as_string(r.path_of("rtt")), r.path_of("rtt"));
  if (const auto* x = r.opt("decrease")) {
    const std::string field = r.path_of("decrease");
    o.decrease = x->as_double(field);
    if (o.decrease <= 0.0 || o.decrease >= 1.0)
      fail(SpecError::Code::kBadValue, field, x->line, "decrease factor must be in (0, 1)");
  }
  r.finish();
}

FlowSpec parse_flow(const JsonValue& v, const std::string& path, std::string& cc) {
  ObjectReader r{v, path};
  FlowSpec f;
  f.src = r.req("src").as_string(r.path_of("src"));
  f.dst = r.req("dst").as_string(r.path_of("dst"));
  if (const auto* x = r.opt("id"))
    f.flow_id = as_checked_unsigned<std::uint32_t>(*x, r.path_of("id"));
  if (const auto* x = r.opt("start"))
    f.start = parse_time(x->as_string(r.path_of("start")), r.path_of("start"));
  if (const auto* x = r.opt("model")) {
    const std::string& m = x->as_string(r.path_of("model"));
    if (m == "packet") f.model = TrafficModel::kPacket;
    else if (m == "fluid") f.model = TrafficModel::kFluid;
    else
      fail(SpecError::Code::kBadValue, r.path_of("model"), x->line,
           "unknown traffic model '" + m + "' (expected \"packet\" or \"fluid\")");
  }
  if (f.model == TrafficModel::kFluid) {
    // A fluid aggregate has no TCP machinery: reject the packet-only
    // fields outright instead of silently ignoring them.
    for (const char* key : {"cc", "ecn", "sender", "receiver", "web100"}) {
      if (const auto* x = r.opt(key))
        fail(SpecError::Code::kBadValue, r.path_of(key), x->line,
             std::string{"\""} + key + "\" is packet-only; a fluid flow takes its "
             "dynamics from \"fluid\"");
    }
    if (const auto* x = r.opt("fluid")) parse_fluid_options(*x, r.path_of("fluid"), f.fluid);
    cc = "reno";  // placeholder; never consulted for fluid flows
    r.finish();
    return f;
  }
  if (const auto* x = r.opt("fluid"))
    fail(SpecError::Code::kBadValue, r.path_of("fluid"), x->line,
         "fluid options require \"model\": \"fluid\"");
  cc = "reno";
  if (const auto* x = r.opt("cc")) {
    cc = x->as_string(r.path_of("cc"));
    try {
      (void)factory_by_name(cc);
    } catch (const std::invalid_argument&) {
      std::string known;
      for (const auto& n : variant_names()) known += (known.empty() ? "" : ", ") + n;
      fail(SpecError::Code::kBadValue, r.path_of("cc"), x->line,
           "unknown congestion-control variant '" + cc + "' (known: " + known + ")");
    }
  }
  if (const auto* x = r.opt("ecn")) f.ecn = x->as_bool(r.path_of("ecn"));
  if (const auto* x = r.opt("sender")) parse_sender_options(*x, r.path_of("sender"), f.sender);
  if (const auto* x = r.opt("receiver"))
    parse_receiver_options(*x, r.path_of("receiver"), f.receiver);
  if (const auto* x = r.opt("web100")) {
    ObjectReader w{*x, r.path_of("web100")};
    f.web100 = true;
    if (const auto* p = w.opt("poll"))
      f.web100_poll_period = parse_time(p->as_string(w.path_of("poll")), w.path_of("poll"));
    w.finish();
  }
  r.finish();
  return f;
}

SweepSpec parse_sweep(const JsonValue& v, const std::string& path) {
  ObjectReader r{v, path};
  SweepSpec sweep;
  if (const auto* x = r.opt("mode")) {
    const std::string& m = x->as_string(r.path_of("mode"));
    if (m == "grid") sweep.mode = SweepSpec::Mode::kGrid;
    else if (m == "zip") sweep.mode = SweepSpec::Mode::kZip;
    else
      fail(SpecError::Code::kBadValue, r.path_of("mode"), x->line,
           "unknown sweep mode '" + m + "' (expected \"grid\" or \"zip\")");
  }
  const JsonValue& axes = r.req("axes");
  if (!axes.is_array())
    fail(SpecError::Code::kWrongType, r.path_of("axes"), axes.line, "expected an array");
  for (std::size_t i = 0; i < axes.array.size(); ++i) {
    const std::string axis_path = idx(r.path_of("axes"), i);
    ObjectReader a{axes.array[i], axis_path};
    SweepAxis axis;
    axis.field = a.req("field").as_string(sub(axis_path, "field"));
    const JsonValue& values = a.req("values");
    if (!values.is_array())
      fail(SpecError::Code::kWrongType, sub(axis_path, "values"), values.line,
           "expected an array");
    if (values.array.empty())
      fail(SpecError::Code::kBadSweep, sub(axis_path, "values"), values.line,
           "sweep axis has no values");
    for (const auto& value : values.array) {
      if (value.is_array() || value.is_object())
        fail(SpecError::Code::kBadSweep, sub(axis_path, "values"), value.line,
             "sweep values must be scalars");
      axis.values.push_back(value);
    }
    a.finish();
    sweep.axes.push_back(std::move(axis));
  }
  if (sweep.mode == SweepSpec::Mode::kZip && !sweep.axes.empty()) {
    const std::size_t len = sweep.axes.front().values.size();
    for (const auto& axis : sweep.axes) {
      if (axis.values.size() != len)
        fail(SpecError::Code::kBadSweep, sub(path, "axes"), v.line,
             "zip sweep axes must have equal lengths (axis '" +
                 sweep.axes.front().field + "' has " + std::to_string(len) + ", axis '" +
                 axis.field + "' has " + std::to_string(axis.values.size()) + ")");
    }
  }
  r.finish();
  return sweep;
}

// --- schema: serialize ----------------------------------------------------

JsonValue red_to_json(const net::RedQueue::Options& red) {
  const net::RedQueue::Options def{};
  JsonValue o = JsonValue::make_object();
  if (red.min_threshold != def.min_threshold)
    o.set("min_threshold", JsonValue::make_number(red.min_threshold));
  if (red.max_threshold != def.max_threshold)
    o.set("max_threshold", JsonValue::make_number(red.max_threshold));
  if (red.max_drop_probability != def.max_drop_probability)
    o.set("max_drop_probability", JsonValue::make_number(red.max_drop_probability));
  if (red.queue_weight != def.queue_weight)
    o.set("queue_weight", JsonValue::make_number(red.queue_weight));
  return o;
}

JsonValue codel_to_json(const net::CodelQueue::Options& codel) {
  const net::CodelQueue::Options def{};
  JsonValue o = JsonValue::make_object();
  if (codel.target != def.target)
    o.set("target", JsonValue::make_string(format_time(codel.target)));
  if (codel.interval != def.interval)
    o.set("interval", JsonValue::make_string(format_time(codel.interval)));
  return o;
}

JsonValue device_to_json(const DeviceSpec& d) {
  const DeviceSpec def{};
  JsonValue o = JsonValue::make_object();
  if (d.rate != def.rate) o.set("rate", JsonValue::make_string(format_rate(d.rate)));
  if (d.ifq_packets != def.ifq_packets)
    o.set("ifq_packets", JsonValue::make_number(static_cast<std::uint64_t>(d.ifq_packets)));
  if (d.qdisc == QueueDiscipline::kRed) {
    o.set("qdisc", JsonValue::make_string("red"));
    JsonValue red = red_to_json(d.red);
    if (!red.object.empty()) o.set("red", std::move(red));
  } else if (d.qdisc == QueueDiscipline::kCodel) {
    o.set("qdisc", JsonValue::make_string("codel"));
    JsonValue codel = codel_to_json(d.codel);
    if (!codel.object.empty()) o.set("codel", std::move(codel));
  }
  if (d.ecn_threshold != def.ecn_threshold)
    o.set("ecn_threshold",
          JsonValue::make_number(static_cast<std::uint64_t>(d.ecn_threshold)));
  if (!d.name.empty()) o.set("name", JsonValue::make_string(d.name));
  return o;
}

JsonValue link_to_json(const LinkSpec& l) {
  JsonValue o = JsonValue::make_object();
  o.set("a", JsonValue::make_string(l.a));
  o.set("b", JsonValue::make_string(l.b));
  o.set("delay", JsonValue::make_string(format_time(l.delay)));
  JsonValue a_dev = device_to_json(l.a_dev);
  if (!a_dev.object.empty()) o.set("a_dev", std::move(a_dev));
  JsonValue b_dev = device_to_json(l.b_dev);
  if (!b_dev.object.empty()) o.set("b_dev", std::move(b_dev));
  return o;
}

JsonValue rtt_to_json(const tcp::RttEstimator::Options& rtt) {
  const tcp::RttEstimator::Options def{};
  JsonValue o = JsonValue::make_object();
  if (rtt.initial_rto != def.initial_rto)
    o.set("initial_rto", JsonValue::make_string(format_time(rtt.initial_rto)));
  if (rtt.min_rto != def.min_rto)
    o.set("min_rto", JsonValue::make_string(format_time(rtt.min_rto)));
  if (rtt.max_rto != def.max_rto)
    o.set("max_rto", JsonValue::make_string(format_time(rtt.max_rto)));
  if (rtt.alpha != def.alpha) o.set("alpha", JsonValue::make_number(rtt.alpha));
  if (rtt.beta != def.beta) o.set("beta", JsonValue::make_number(rtt.beta));
  if (rtt.k != def.k) o.set("k", JsonValue::make_number(static_cast<std::int64_t>(rtt.k)));
  return o;
}

JsonValue sender_to_json(const tcp::TcpSender::Options& o) {
  const tcp::TcpSender::Options def{};
  JsonValue j = JsonValue::make_object();
  if (o.mss != def.mss) j.set("mss", JsonValue::make_number(static_cast<std::uint64_t>(o.mss)));
  if (o.initial_seq != def.initial_seq)
    j.set("initial_seq", JsonValue::make_number(static_cast<std::uint64_t>(o.initial_seq)));
  if (o.rwnd_limit_bytes != def.rwnd_limit_bytes)
    j.set("rwnd_limit_bytes", JsonValue::make_number(o.rwnd_limit_bytes));
  if (o.stall_retry_delay != def.stall_retry_delay)
    j.set("stall_retry_delay", JsonValue::make_string(format_time(o.stall_retry_delay)));
  if (o.enable_sack != def.enable_sack) j.set("enable_sack", JsonValue::make_bool(o.enable_sack));
  if (o.cwnd_validation != def.cwnd_validation)
    j.set("cwnd_validation", JsonValue::make_bool(o.cwnd_validation));
  if (o.trace_cwnd != def.trace_cwnd) j.set("trace_cwnd", JsonValue::make_bool(o.trace_cwnd));
  if (o.trace_stalls != def.trace_stalls)
    j.set("trace_stalls", JsonValue::make_bool(o.trace_stalls));
  JsonValue rtt = rtt_to_json(o.rtt);
  if (!rtt.object.empty()) j.set("rtt", std::move(rtt));
  return j;
}

JsonValue receiver_to_json(const tcp::TcpReceiver::Options& o) {
  const tcp::TcpReceiver::Options def{};
  JsonValue j = JsonValue::make_object();
  if (o.initial_seq != def.initial_seq)
    j.set("initial_seq", JsonValue::make_number(static_cast<std::uint64_t>(o.initial_seq)));
  if (o.advertised_window != def.advertised_window)
    j.set("advertised_window",
          JsonValue::make_number(static_cast<std::uint64_t>(o.advertised_window)));
  if (o.ack_every != def.ack_every)
    j.set("ack_every", JsonValue::make_number(static_cast<std::int64_t>(o.ack_every)));
  if (o.delayed_ack_timeout != def.delayed_ack_timeout)
    j.set("delayed_ack_timeout", JsonValue::make_string(format_time(o.delayed_ack_timeout)));
  if (o.enable_sack != def.enable_sack) j.set("enable_sack", JsonValue::make_bool(o.enable_sack));
  if (o.quickack_segments != def.quickack_segments)
    j.set("quickack_segments", JsonValue::make_number(o.quickack_segments));
  return j;
}

JsonValue fluid_to_json(const net::FluidOptions& o) {
  const net::FluidOptions def{};
  JsonValue j = JsonValue::make_object();
  if (o.initial_rate != def.initial_rate)
    j.set("initial_rate", JsonValue::make_string(format_rate(o.initial_rate)));
  if (o.peak_rate != def.peak_rate)
    j.set("peak_rate", JsonValue::make_string(format_rate(o.peak_rate)));
  if (o.stride != def.stride) j.set("stride", JsonValue::make_string(format_time(o.stride)));
  if (o.packet_bytes != def.packet_bytes)
    j.set("packet_bytes", JsonValue::make_number(static_cast<std::uint64_t>(o.packet_bytes)));
  if (o.rtt != def.rtt) j.set("rtt", JsonValue::make_string(format_time(o.rtt)));
  if (o.decrease != def.decrease) j.set("decrease", JsonValue::make_number(o.decrease));
  return j;
}

JsonValue flow_to_json(const FlowSpec& f, const std::string& cc) {
  JsonValue o = JsonValue::make_object();
  o.set("src", JsonValue::make_string(f.src));
  o.set("dst", JsonValue::make_string(f.dst));
  if (f.flow_id != 0)
    o.set("id", JsonValue::make_number(static_cast<std::uint64_t>(f.flow_id)));
  if (f.start) o.set("start", JsonValue::make_string(format_time(*f.start)));
  if (f.model == TrafficModel::kFluid) {
    o.set("model", JsonValue::make_string("fluid"));
    JsonValue fluid = fluid_to_json(f.fluid);
    if (!fluid.object.empty()) o.set("fluid", std::move(fluid));
    return o;
  }
  o.set("cc", JsonValue::make_string(cc));
  if (f.ecn) o.set("ecn", JsonValue::make_bool(true));
  JsonValue sender = sender_to_json(f.sender);
  if (!sender.object.empty()) o.set("sender", std::move(sender));
  JsonValue receiver = receiver_to_json(f.receiver);
  if (!receiver.object.empty()) o.set("receiver", std::move(receiver));
  if (f.web100) {
    JsonValue w = JsonValue::make_object();
    if (f.web100_poll_period != FlowSpec{}.web100_poll_period)
      w.set("poll", JsonValue::make_string(format_time(f.web100_poll_period)));
    o.set("web100", std::move(w));
  }
  return o;
}

[[nodiscard]] std::optional<sim::QueueBackend> parse_backend_name(const JsonValue& x,
                                                                  const std::string& field) {
  const std::string& b = x.as_string(field);
  if (b == "binary_heap") return sim::QueueBackend::kBinaryHeap;
  if (b == "calendar_queue") return sim::QueueBackend::kCalendarQueue;
  if (b == "auto") return std::nullopt;
  fail(SpecError::Code::kBadValue, field, x.line,
       "unknown backend '" + b +
           "' (expected \"binary_heap\", \"calendar_queue\", or \"auto\")");
}

[[nodiscard]] ExecutionPolicy parse_execution(const JsonValue& v, const std::string& path) {
  ObjectReader r{v, path};
  ExecutionPolicy policy;
  if (const auto* x = r.opt("backend"))
    policy.backend = parse_backend_name(*x, r.path_of("backend"));
  if (const auto* x = r.opt("partitions")) {
    const std::string field = r.path_of("partitions");
    policy.partitions = static_cast<std::size_t>(x->as_u64(field));
    if (policy.partitions == 0)
      fail(SpecError::Code::kBadValue, field, x->line, "partitions must be >= 1");
  }
  if (const auto* x = r.opt("strategy")) {
    const std::string field = r.path_of("strategy");
    const std::string& s = x->as_string(field);
    if (s == "auto") policy.strategy = PartitionStrategy::kAuto;
    else if (s == "block") policy.strategy = PartitionStrategy::kBlock;
    else
      fail(SpecError::Code::kBadValue, field, x->line,
           "unknown strategy '" + s + "' (expected \"auto\" or \"block\")");
  }
  if (const auto* x = r.opt("threads"))
    policy.threads = static_cast<std::size_t>(x->as_u64(r.path_of("threads")));
  if (const auto* x = r.opt("deterministic_merge"))
    policy.deterministic_merge = x->as_bool(r.path_of("deterministic_merge"));
  r.finish();
  return policy;
}

/// Defaults elided field-by-field so a spec that only sets `partitions`
/// round-trips as exactly {"partitions": N}.
[[nodiscard]] JsonValue execution_to_json(const ExecutionPolicy& policy) {
  const ExecutionPolicy def{};
  JsonValue o = JsonValue::make_object();
  if (policy.backend)
    o.set("backend", JsonValue::make_string(*policy.backend == sim::QueueBackend::kBinaryHeap
                                                ? "binary_heap"
                                                : "calendar_queue"));
  if (policy.partitions != def.partitions)
    o.set("partitions",
          JsonValue::make_number(static_cast<std::uint64_t>(policy.partitions)));
  if (policy.strategy != def.strategy) o.set("strategy", JsonValue::make_string("block"));
  if (policy.threads != def.threads)
    o.set("threads", JsonValue::make_number(static_cast<std::uint64_t>(policy.threads)));
  if (policy.deterministic_merge != def.deterministic_merge)
    o.set("deterministic_merge", JsonValue::make_bool(policy.deterministic_merge));
  return o;
}

JsonValue sweep_to_json(const SweepSpec& sweep) {
  JsonValue o = JsonValue::make_object();
  if (sweep.mode == SweepSpec::Mode::kZip) o.set("mode", JsonValue::make_string("zip"));
  JsonValue axes = JsonValue::make_array();
  for (const auto& axis : sweep.axes) {
    JsonValue a = JsonValue::make_object();
    a.set("field", JsonValue::make_string(axis.field));
    JsonValue values = JsonValue::make_array();
    values.array = axis.values;
    a.set("values", std::move(values));
    axes.array.push_back(std::move(a));
  }
  o.set("axes", std::move(axes));
  return o;
}

// --- schema: the scenario document ----------------------------------------

/// One top-level member of a scenario document. parse_scenario_spec runs
/// every member's `read`, in kMembers order, then rejects unknown keys. A
/// read overwrites the member's whole part of the spec (an absent member
/// resets it to its default), so sweep expansion can re-run the reads of
/// the members its axes write on a copy of the base result. Array members
/// can also be read element by element: `resize` sizes the spec's part and
/// `element` reads one element into its slot.
struct Member {
  using Read = void (*)(ObjectReader& r, ScenarioSpec& s);
  using Resize = void (*)(ScenarioSpec& s, std::size_t n);
  using Element = void (*)(const JsonValue& x, std::size_t i, ScenarioSpec& s);

  std::string_view key;
  Read read;
  Resize resize{nullptr};
  Element element{nullptr};
};

void read_name(ObjectReader& r, ScenarioSpec& s) {
  const JsonValue* x = r.opt("name");
  s.name = x ? x->as_string("name") : "scenario";
}

void read_seed(ObjectReader& r, ScenarioSpec& s) {
  const JsonValue* x = r.opt("seed");
  s.topology.seed = x ? x->as_u64("seed") : TopologySpec{}.seed;
}

// Top-level "backend" is the deprecated alias for execution.backend; both
// parse, and the builder resolves the precedence (execution wins).
void read_backend(ObjectReader& r, ScenarioSpec& s) {
  const JsonValue* x = r.opt("backend");
  s.topology.backend = x ? parse_backend_name(*x, "backend") : std::nullopt;
}

void read_execution(ObjectReader& r, ScenarioSpec& s) {
  const JsonValue* x = r.opt("execution");
  s.topology.execution = x ? parse_execution(*x, "execution") : ExecutionPolicy{};
}

/// Reads array member `key` (`x`, nullptr when absent) element by element.
void read_array(const JsonValue* x, const std::string& key, ScenarioSpec& s,
                Member::Resize resize, Member::Element element) {
  if (x && !x->is_array()) fail(SpecError::Code::kWrongType, key, x->line, "expected an array");
  const std::size_t n = x ? x->array.size() : 0;
  resize(s, n);
  for (std::size_t i = 0; i < n; ++i) element(x->array[i], i, s);
}

void resize_nodes(ScenarioSpec& s, std::size_t n) { s.topology.nodes.resize(n); }

void read_node(const JsonValue& x, std::size_t i, ScenarioSpec& s) {
  s.topology.nodes[i] = x.as_string(idx("nodes", i));
}

void read_nodes(ObjectReader& r, ScenarioSpec& s) {
  read_array(&r.req("nodes"), "nodes", s, resize_nodes, read_node);
}

void resize_links(ScenarioSpec& s, std::size_t n) { s.topology.links.resize(n); }

void read_link(const JsonValue& x, std::size_t i, ScenarioSpec& s) {
  s.topology.links[i] = parse_link(x, idx("links", i));
}

void read_links(ObjectReader& r, ScenarioSpec& s) {
  read_array(r.opt("links"), "links", s, resize_links, read_link);
}

void resize_flows(ScenarioSpec& s, std::size_t n) {
  s.topology.flows.resize(n);
  s.flow_cc.resize(n);
}

void read_flow(const JsonValue& x, std::size_t i, ScenarioSpec& s) {
  s.topology.flows[i] = parse_flow(x, idx("flows", i), s.flow_cc[i]);
}

void read_flows(ObjectReader& r, ScenarioSpec& s) {
  read_array(r.opt("flows"), "flows", s, resize_flows, read_flow);
}

void read_run(ObjectReader& r, ScenarioSpec& s) {
  s.run = RunSpec{};
  const JsonValue* run = r.opt("run");
  if (!run) return;
  ObjectReader rr{*run, "run"};
  if (const auto* x = rr.opt("duration"))
    s.run.duration = parse_time(x->as_string("run.duration"), "run.duration");
  if (const auto* x = rr.opt("measure_start"))
    s.run.measure_start = parse_time(x->as_string("run.measure_start"), "run.measure_start");
  rr.finish();
}

void read_sweep(ObjectReader& r, ScenarioSpec& s) {
  const JsonValue* x = r.opt("sweep");
  s.sweep = x ? parse_sweep(*x, "sweep") : SweepSpec{};
}

constexpr Member kMembers[] = {
    {"name", read_name},
    {"seed", read_seed},
    {"backend", read_backend},
    {"execution", read_execution},
    {"nodes", read_nodes, resize_nodes, read_node},
    {"links", read_links, resize_links, read_link},
    {"flows", read_flows, resize_flows, read_flow},
    {"run", read_run},
    {"sweep", read_sweep},
};

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
  ObjectReader r{document, ""};
  ScenarioSpec s;
  for (const Member& m : kMembers) m.read(r, s);
  r.finish();
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
  JsonValue root = JsonValue::make_object();
  if (spec.name != "scenario") root.set("name", JsonValue::make_string(spec.name));
  if (spec.topology.seed != TopologySpec{}.seed)
    root.set("seed", JsonValue::make_number(spec.topology.seed));
  if (spec.topology.backend) {
    root.set("backend",
             JsonValue::make_string(*spec.topology.backend == sim::QueueBackend::kBinaryHeap
                                        ? "binary_heap"
                                        : "calendar_queue"));
  }
  // Emitted only when non-default, so pre-execution specs (and all the
  // goldens) stay byte-identical through a round trip.
  if (!spec.topology.execution.is_default())
    root.set("execution", execution_to_json(spec.topology.execution));

  JsonValue nodes = JsonValue::make_array();
  for (const auto& n : spec.topology.nodes) nodes.array.push_back(JsonValue::make_string(n));
  root.set("nodes", std::move(nodes));

  if (!spec.topology.links.empty()) {
    JsonValue links = JsonValue::make_array();
    for (const auto& l : spec.topology.links) links.array.push_back(link_to_json(l));
    root.set("links", std::move(links));
  }

  if (!spec.topology.flows.empty()) {
    JsonValue flows = JsonValue::make_array();
    for (std::size_t i = 0; i < spec.topology.flows.size(); ++i) {
      const std::string cc = i < spec.flow_cc.size() ? spec.flow_cc[i] : "reno";
      flows.array.push_back(flow_to_json(spec.topology.flows[i], cc));
    }
    root.set("flows", std::move(flows));
  }

  const RunSpec run_def{};
  if (spec.run.duration != run_def.duration || spec.run.measure_start != run_def.measure_start) {
    JsonValue run = JsonValue::make_object();
    if (spec.run.duration != run_def.duration)
      run.set("duration", JsonValue::make_string(format_time(spec.run.duration)));
    if (spec.run.measure_start != run_def.measure_start)
      run.set("measure_start", JsonValue::make_string(format_time(spec.run.measure_start)));
    root.set("run", std::move(run));
  }

  if (!spec.sweep.empty()) root.set("sweep", sweep_to_json(spec.sweep));
  return root;
}

std::string serialize_scenario_spec(const ScenarioSpec& spec) {
  return json_serialize(scenario_spec_to_json(spec));
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
    return {static_cast<std::size_t>(member - kMembers), element ? *element + 1 : 0};
  }

  void read(ScenarioSpec& s) const {
    if (element) {
      member->element(value, *element, s);
      return;
    }
    ObjectReader r{value, ""};
    member->read(r, s);
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
  ScenarioSpec spec;
  std::exception_ptr error;
  ParsePosition error_at;
};

[[nodiscard]] BaseParse parse_base(const JsonValue& document,
                                   const std::vector<WrittenPart>& parts) {
  BaseParse base;
  ObjectReader r{document, ""};
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
        member.read(r, base.spec);
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
/// ObjectReader::finish would: the base document's keys in order, then the
/// keys the axes created, in the order they created them.
void check_point_keys(const JsonValue& document, const std::vector<WrittenPart>& parts) {
  for (const auto& [key, value] : document.object) {
    if (find_member(key)) continue;
    const auto part = std::find_if(parts.begin(), parts.end(),
                                   [&](const WrittenPart& p) { return p.key == key; });
    fail_unknown_field("", key, part != parts.end() ? part->written().line : value.line);
  }
  for (const WrittenPart& part : parts)
    if (!part.member && !part.base) fail_unknown_field("", part.key, part.written().line);
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
  const SweepSpec sweep = parse_sweep(*sweep_json, "sweep");
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
