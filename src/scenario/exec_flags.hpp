#pragma once

#include <cstddef>

#include "scenario/execution.hpp"

namespace rss::scenario {

/// The shared execution flag surface: rss_scenario and rss_artifacts accept
/// the same two flags with the same meanings, and both feed one
/// process-wide thread budget (ExecutionDefaults) so nested parallelism —
/// sweep workers times partition engine threads — never oversubscribes.
///
///   --jobs <n>         total thread budget (0 / omitted = all cores)
///   --partitions <n>   run each scenario across n >= 1 partitions
///
/// Counts are decimal digits only: a sign, a suffix or a value beyond
/// size_t is a usage error, never a wrapped or saturated count.
struct ExecFlags {
  std::size_t jobs{0};        ///< 0 = unset (hardware concurrency)
  std::size_t partitions{0};  ///< 0 = unset (spec/Config decides)

  enum class Parse {
    kConsumed,  ///< argv[i] (and possibly its value) was one of ours
    kNotMine,   ///< not an execution flag; caller keeps parsing
    kError,     ///< ours but malformed; a diagnostic went to stderr
  };

  /// Try to consume argv[i], advancing `i` past any value argument.
  [[nodiscard]] Parse parse(int argc, char** argv, int& i);

  /// The flag help block (indented, newline-terminated) for usage() texts.
  [[nodiscard]] static const char* help();

  /// Install as the process-wide ExecutionDefaults (the lowest-precedence
  /// policy layer); unset flags leave the defaults alone.
  void install() const;

  /// Override one policy in place — the CLI wins over the spec for the
  /// flags that were given; unset flags leave the policy alone. (--jobs is
  /// deliberately not applied here: the thread budget is divided by the
  /// runner across sweep workers, not pinned per scenario.)
  void apply(ExecutionPolicy& policy) const;
};

}  // namespace rss::scenario
