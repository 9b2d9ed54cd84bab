#pragma once

#include <string>

namespace rss::artifacts {

/// Entry point for the rss_artifacts driver. `default_goldens_dir` is the
/// fallback used when no --goldens flag is given (the build embeds the
/// source-tree artifacts/goldens path).
int artifacts_main(int argc, char** argv, std::string default_goldens_dir);

}  // namespace rss::artifacts
