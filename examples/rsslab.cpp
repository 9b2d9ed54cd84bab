// rsslab — command-line experiment driver: run any congestion-control
// variant over a parameterized WAN path and report the Web100 view.
// The "I want to poke at it" front end a released system ships with.
//
// Usage:
//   rsslab [--variant NAME] [--rtt MS] [--ifq PKTS] [--rate MBPS]
//          [--duration S] [--loss P] [--jitter MS] [--cross MBPS]
//          [--seed N] [--csv]
//
//   --variant  tahoe | reno | vegas | limited | restricted | highspeed |
//              highspeed-rss            (default: restricted)
//   --csv      dump the Web100 time series instead of the summary
//
// Examples:
//   rsslab --variant reno --rtt 120 --duration 30
//   rsslab --variant restricted --loss 0.001 --csv > run.csv

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <system_error>

#include "scenario/cc_factories.hpp"
#include "scenario/wan_path.hpp"
#include "web100/csv_export.hpp"
#include "workload/apps.hpp"

using namespace rss;
using namespace rss::sim::literals;

namespace {

struct Args {
  std::string variant{"restricted"};
  std::int64_t rtt_ms{60};
  std::size_t ifq{100};
  std::uint64_t rate_mbps{100};
  std::int64_t duration_s{25};
  double loss{0.0};
  std::int64_t jitter_ms{0};
  double cross_mbps{0.0};
  std::uint64_t seed{1};
  bool csv{false};
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--variant NAME] [--rtt MS] [--ifq PKTS] [--rate MBPS]\n"
               "          [--duration S] [--loss P] [--jitter MS] [--cross MBPS]\n"
               "          [--seed N] [--csv]\n",
               argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (++i >= argc) usage(argv[0]);
      return argv[i];
    };
    // The whole argument must be a number: "--seed abc" and "--rtt 30ms"
    // are usage errors, not 0 and 30.
    auto number = [&](auto& out) {
      const std::string_view text = value();
      const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
      if (ec != std::errc{} || end != text.data() + text.size()) {
        std::fprintf(stderr, "%s: %s expects a number, got '%s'\n", argv[0], flag.c_str(),
                     argv[i]);
        usage(argv[0]);
      }
    };
    if (flag == "--variant") {
      a.variant = value();
    } else if (flag == "--rtt") {
      number(a.rtt_ms);
    } else if (flag == "--ifq") {
      number(a.ifq);
    } else if (flag == "--rate") {
      number(a.rate_mbps);
    } else if (flag == "--duration") {
      number(a.duration_s);
    } else if (flag == "--loss") {
      number(a.loss);
    } else if (flag == "--jitter") {
      number(a.jitter_ms);
    } else if (flag == "--cross") {
      number(a.cross_mbps);
    } else if (flag == "--seed") {
      number(a.seed);
    } else if (flag == "--csv") {
      a.csv = true;
    } else {
      usage(argv[0]);
    }
  }
  if (a.rtt_ms <= 0 || a.ifq == 0 || a.rate_mbps == 0 || a.duration_s <= 0 ||
      a.loss < 0.0 || a.loss >= 1.0 || a.jitter_ms < 0 || a.cross_mbps < 0.0) {
    usage(argv[0]);
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  scenario::CcFactory factory;
  try {
    factory = scenario::factory_by_name(args.variant);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  scenario::WanPath::Config cfg;
  cfg.seed = args.seed;
  cfg.path.nic_rate = net::DataRate::mbps(args.rate_mbps);
  cfg.path.ifq_capacity_packets = args.ifq;
  cfg.path.one_way_delay = sim::Time::milliseconds(args.rtt_ms / 2);
  cfg.web100_poll_period = 100_ms;
  scenario::WanPath wan{cfg, factory};

  if (args.loss > 0.0) wan.nic().link()->set_loss_rate(args.loss, sim::Rng{args.seed + 1});
  if (args.jitter_ms > 0) {
    wan.nic().link()->set_jitter(sim::Time::milliseconds(args.jitter_ms),
                                 sim::Rng{args.seed + 2});
  }

  std::unique_ptr<workload::PoissonPacketSource> cross;
  if (args.cross_mbps > 0.0) {
    workload::PoissonPacketSource::Options xopt;
    xopt.dst_node = 2;
    xopt.payload_bytes = 1460;
    xopt.packets_per_second = args.cross_mbps * 1e6 / 8.0 / 1500.0;
    cross = std::make_unique<workload::PoissonPacketSource>(wan.simulation(),
                                                            wan.sender_node(), xopt);
  }

  const sim::Time horizon = sim::Time::seconds(args.duration_s);
  wan.run_bulk_transfer(sim::Time::zero(), horizon);

  if (args.csv) {
    web100::export_csv(*wan.agent(), std::cout, sim::Time::zero(), horizon, 100_ms);
    return 0;
  }

  const auto& mib = wan.sender().mib();
  std::printf("variant            %s\n", args.variant.c_str());
  std::printf("path               %llu Mbit/s, RTT %lld ms, IFQ %zu pkts",
              static_cast<unsigned long long>(args.rate_mbps),
              static_cast<long long>(args.rtt_ms), args.ifq);
  if (args.loss > 0) std::printf(", loss %.4f", args.loss);
  if (args.jitter_ms > 0) std::printf(", jitter %lld ms", static_cast<long long>(args.jitter_ms));
  if (cross) std::printf(", cross %.1f Mbit/s", args.cross_mbps);
  std::printf("\n");
  std::printf("goodput            %.2f Mbit/s over %lld s\n",
              wan.goodput_mbps(sim::Time::zero(), horizon),
              static_cast<long long>(args.duration_s));
  std::printf("send-stalls        %llu\n", static_cast<unsigned long long>(mib.SendStall));
  std::printf("congestion signals %llu (fast-retransmit %llu, timeouts %llu, cwr %llu)\n",
              static_cast<unsigned long long>(mib.CongestionSignals),
              static_cast<unsigned long long>(mib.FastRetran),
              static_cast<unsigned long long>(mib.Timeouts),
              static_cast<unsigned long long>(mib.OtherReductions));
  std::printf("segments out       %llu (%llu retransmitted)\n",
              static_cast<unsigned long long>(mib.PktsOut),
              static_cast<unsigned long long>(mib.PktsRetrans));
  std::printf("max cwnd           %.0f segments\n", mib.MaxCwnd / 1460.0);
  std::printf("smoothed RTT       %lld ms (min %lld ms)\n",
              static_cast<long long>(mib.SmoothedRTT.milliseconds_count()),
              static_cast<long long>(mib.MinRTT.milliseconds_count()));
  return 0;
}
