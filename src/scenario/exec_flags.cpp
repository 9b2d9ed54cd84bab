#include "scenario/exec_flags.hpp"

#include <charconv>
#include <cstdio>
#include <string_view>
#include <system_error>

namespace rss::scenario {

namespace {

/// Parse argv[i + 1] as a count of at least `min`, advancing `i` past it.
[[nodiscard]] bool parse_count(const char* flag, int argc, char** argv, int& i, std::size_t min,
                               std::size_t& out) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s needs a count argument\n", flag);
    return false;
  }
  const std::string_view text = argv[++i];
  std::size_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    std::fprintf(stderr, "%s: '%s' is not a count\n", flag, argv[i]);
    return false;
  }
  if (v < min) {
    std::fprintf(stderr, "%s must be at least %zu\n", flag, min);
    return false;
  }
  out = v;
  return true;
}

}  // namespace

ExecFlags::Parse ExecFlags::parse(int argc, char** argv, int& i) {
  const std::string_view arg = argv[i];
  bool ok = true;
  if (arg == "--jobs") {
    ok = parse_count("--jobs", argc, argv, i, 0, jobs);
  } else if (arg == "--partitions") {
    ok = parse_count("--partitions", argc, argv, i, 1, partitions);
  } else {
    return Parse::kNotMine;
  }
  return ok ? Parse::kConsumed : Parse::kError;
}

const char* ExecFlags::help() {
  return "  --jobs <n>               total thread budget shared by sweep points and\n"
         "                           partition engines (default: all cores)\n"
         "  --partitions <n>         run each scenario across n >= 1 partitions\n";
}

void ExecFlags::install() const {
  ExecutionDefaults& defaults = execution_defaults();
  if (jobs != 0) defaults.thread_budget = jobs;
  if (partitions != 0) defaults.partitions = partitions;
}

void ExecFlags::apply(ExecutionPolicy& policy) const {
  if (partitions != 0) policy.partitions = partitions;
}

}  // namespace rss::scenario
