// Fairness demo: four flows share a 100 Mbit/s dumbbell bottleneck, with
// the congestion-control mix chosen on the command line. Shows that a
// Restricted Slow-Start flow coexists with standard TCP ("network
// friendly", the paper's stated goal) — it restricts only its own startup.
//
// Usage: fairness_demo [reno|rss|mixed]   (default: mixed)

#include <cstdio>
#include <memory>
#include <string>

#include "metrics/summary.hpp"
#include "scenario/dumbbell.hpp"
#include "scenario/cc_factories.hpp"

using namespace rss;
using namespace rss::sim::literals;

int main(int argc, char** argv) {
  const std::string mix = argc > 1 ? argv[1] : "mixed";

  scenario::Dumbbell::Config cfg;
  cfg.flows = 4;
  cfg.router_queue_packets = 100;

  scenario::FlowCcFactory factory;
  if (mix == "reno") {
    factory = [](std::size_t) -> std::unique_ptr<tcp::CongestionControl> {
      return std::make_unique<tcp::RenoCongestionControl>();
    };
  } else if (mix == "rss") {
    factory = [](std::size_t) -> std::unique_ptr<tcp::CongestionControl> {
      return std::make_unique<core::RestrictedSlowStart>();
    };
  } else if (mix == "mixed") {
    factory = [](std::size_t i) -> std::unique_ptr<tcp::CongestionControl> {
      if (i % 2 == 0) return std::make_unique<core::RestrictedSlowStart>();
      return std::make_unique<tcp::RenoCongestionControl>();
    };
  } else {
    std::fprintf(stderr, "usage: %s [reno|rss|mixed]\n", argv[0]);
    return 1;
  }

  scenario::Dumbbell d{cfg, factory};
  // Stagger the starts: late arrivals must be able to claim their share.
  for (std::size_t i = 0; i < cfg.flows; ++i)
    d.start_flow(i, sim::Time::seconds(static_cast<std::int64_t>(i) * 2));

  const sim::Time horizon = 40_s;
  d.simulation().run_until(horizon);

  std::printf("dumbbell: 4 flows, staggered starts, %s mix, %.0f s\n\n", mix.c_str(),
              horizon.to_seconds());
  std::printf("%-6s %-24s %12s %12s %10s\n", "flow", "algorithm", "goodput Mb/s",
              "retransmits", "stalls");

  // Steady-state window: after the last flow has been up for a while.
  const auto goodputs = d.goodputs_mbps(10_s, horizon);
  for (std::size_t i = 0; i < cfg.flows; ++i) {
    const auto& s = d.sender(i);
    // goodputs_mbps uses total acked bytes; rescale to the window handled
    // inside; print as reported.
    std::printf("%-6zu %-24s %12.1f %12llu %10llu\n", i,
                std::string{s.congestion_control().name()}.c_str(), goodputs[i],
                static_cast<unsigned long long>(s.mib().PktsRetrans),
                static_cast<unsigned long long>(s.mib().SendStall));
  }

  std::printf("\nJain fairness index: %.3f (1.0 = perfectly fair)\n",
              metrics::jain_fairness(goodputs));
  std::printf("bottleneck drops: %llu\n",
              static_cast<unsigned long long>(d.bottleneck().ifq().stats().dropped));
  return 0;
}
