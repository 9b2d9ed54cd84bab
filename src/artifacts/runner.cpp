#include "artifacts/runner.hpp"

#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string_view>

#include "artifacts/experiments.hpp"
#include "artifacts/golden.hpp"
#include "artifacts/registry.hpp"
#include "scenario/exec_flags.hpp"

namespace rss::artifacts {

namespace {

namespace fs = std::filesystem;

std::string golden_path(const std::string& dir, const std::string& name) {
  return (fs::path{dir} / (name + ".csv")).string();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <command> [options] [experiment...]\n"
               "\n"
               "commands:\n"
               "  --list            list registered experiments\n"
               "  --run <name|all>  run experiment(s), print CSV tables + verdicts\n"
               "  --write-goldens   run experiment(s) and (re)write golden CSVs\n"
               "  --check           run experiment(s) and diff against golden CSVs;\n"
               "                    exit 0 iff every table matches (determinism gate)\n"
               "\n"
               "options:\n"
               "  --goldens <dir>   golden directory (default: the source tree's\n"
               "                    artifacts/goldens, falling back to ./artifacts/goldens)\n"
               "%s"
               "\n"
               "--write-goldens and --check default to every registered experiment;\n"
               "name specific experiments to restrict them.\n",
               argv0, scenario::ExecFlags::help());
  return 2;
}

/// Resolve the experiment name list for a command; "all"/empty -> all.
bool resolve_names(const ExperimentRegistry& registry, std::vector<std::string>& names,
                   std::string& error) {
  if (names.empty() || (names.size() == 1 && names[0] == "all")) {
    names = registry.names();
    return true;
  }
  for (const auto& n : names) {
    if (!registry.find(n)) {
      error = "unknown experiment: " + n;
      return false;
    }
  }
  return true;
}

int cmd_list(const ExperimentRegistry& registry) {
  for (const auto& name : registry.names()) {
    const Experiment* e = registry.find(name);
    std::printf("%-18s %s\n", e->name.c_str(), e->title.c_str());
  }
  return 0;
}

int cmd_run(const ExperimentRegistry& registry, const std::vector<std::string>& names) {
  bool all_reproduced = true;
  for (const auto& name : names) {
    const Experiment* e = registry.find(name);
    std::printf("== %s: %s\n", e->name.c_str(), e->title.c_str());
    const ExperimentResult r = e->run();
    r.table.write_csv(std::cout);
    std::printf("-- %s\n\n", r.verdict.c_str());
    all_reproduced = all_reproduced && r.reproduced;
  }
  return all_reproduced ? 0 : 1;
}

int cmd_write_goldens(const ExperimentRegistry& registry,
                      const std::vector<std::string>& names, const std::string& dir) {
  fs::create_directories(dir);
  for (const auto& name : names) {
    const Experiment* e = registry.find(name);
    const ExperimentResult r = e->run();
    const auto path = golden_path(dir, name);
    write_golden(path, r.table);
    std::printf("wrote %-18s -> %s (%zu rows)%s\n", name.c_str(), path.c_str(),
                r.table.row_count(), r.reproduced ? "" : "  [shape NOT reproduced]");
  }
  return 0;
}

int cmd_check(const ExperimentRegistry& registry, const std::vector<std::string>& names,
              const std::string& dir) {
  std::size_t failures = 0;
  std::size_t index = 0;
  for (const auto& name : names) {
    ++index;
    std::printf("[%zu/%zu] %-18s ", index, names.size(), name.c_str());
    std::fflush(stdout);
    const auto path = golden_path(dir, name);
    if (!fs::exists(path)) {
      std::printf("FAIL (missing golden %s — run --write-goldens)\n", path.c_str());
      ++failures;
      continue;
    }
    const Experiment* e = registry.find(name);
    metrics::Table golden;
    try {
      golden = metrics::Table::read_csv_file(path);
    } catch (const std::exception& ex) {
      std::printf("FAIL (unreadable golden: %s)\n", ex.what());
      ++failures;
      continue;
    }
    const ExperimentResult r = e->run();
    const DiffResult diff = diff_tables(golden, r.table, e->tolerances);
    if (!diff.ok()) {
      std::printf("FAIL (%zu mismatches)\n", diff.total_mismatches);
      for (const auto& err : diff.errors) std::printf("    %s\n", err.c_str());
      ++failures;
    } else if (!r.reproduced) {
      // Drift inside the tolerances can still flip a strict shape
      // predicate recomputed from the fresh numbers; the bench binaries
      // would then exit 1 for every user, so the gate must fail too.
      std::printf("FAIL (tables match but shape verdict regressed: %s)\n",
                  r.verdict.c_str());
      ++failures;
    } else {
      std::printf("PASS (%zu rows, %zu cols)\n", golden.row_count(),
                  golden.column_count());
    }
  }
  if (failures) {
    std::printf("\n%zu/%zu experiments drifted from their goldens.\n"
                "If the change is intentional, regenerate with --write-goldens and commit "
                "the diff.\n",
                failures, names.size());
  } else {
    std::printf("\nall %zu experiments match their goldens.\n", names.size());
  }
  return failures ? 1 : 0;
}

}  // namespace

int artifacts_main(int argc, char** argv, std::string default_goldens_dir) {
  enum class Command { kNone, kList, kRun, kWriteGoldens, kCheck };
  Command cmd = Command::kNone;
  std::string goldens_dir;
  scenario::ExecFlags exec;
  std::vector<std::string> names;

  for (int i = 1; i < argc; ++i) {
    switch (exec.parse(argc, argv, i)) {
      case scenario::ExecFlags::Parse::kConsumed:
        continue;
      case scenario::ExecFlags::Parse::kError:
        return usage(argv[0]);
      case scenario::ExecFlags::Parse::kNotMine:
        break;
    }
    const std::string_view arg = argv[i];
    if (arg == "--list") {
      cmd = Command::kList;
    } else if (arg == "--run") {
      cmd = Command::kRun;
    } else if (arg == "--write-goldens") {
      cmd = Command::kWriteGoldens;
    } else if (arg == "--check") {
      cmd = Command::kCheck;
    } else if (arg == "--goldens") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--goldens needs a directory argument\n");
        return 2;
      }
      goldens_dir = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return usage(argv[0]);
    } else {
      names.emplace_back(arg);
    }
  }
  if (cmd == Command::kNone) return usage(argv[0]);
  // Same flag surface as rss_scenario: install the execution flags as the
  // process-wide defaults so every experiment's internal sweeps and
  // partitioned builds draw on one thread budget.
  exec.install();

  if (goldens_dir.empty()) {
    // The build embeds <source-tree>/artifacts/goldens; use it as long as
    // the source tree is still there (--write-goldens may need to create
    // the directory itself). Fall back to a CWD-relative path so a
    // relocated binary still works when run from a repo root.
    const fs::path def{default_goldens_dir};
    const bool source_tree_present =
        fs::exists(def) ||
        (def.has_parent_path() && fs::exists(def.parent_path().parent_path()));
    goldens_dir = source_tree_present ? default_goldens_dir
                                      : std::string{"artifacts/goldens"};
  }

  try {
    auto& registry = ExperimentRegistry::instance();
    register_builtin_experiments(registry);
    if (cmd == Command::kList) return cmd_list(registry);

    std::string error;
    if (!resolve_names(registry, names, error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    switch (cmd) {
      case Command::kRun:
        return cmd_run(registry, names);
      case Command::kWriteGoldens:
        return cmd_write_goldens(registry, names, goldens_dir);
      case Command::kCheck:
        return cmd_check(registry, names, goldens_dir);
      default:
        return usage(argv[0]);
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 2;
  }
}

}  // namespace rss::artifacts
