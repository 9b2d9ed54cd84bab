#include "web100/mib.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "web100/polling_agent.hpp"

namespace rss::web100 {
namespace {

using namespace rss::sim::literals;

TEST(MibTest, FlattenContainsCoreVariables) {
  Mib mib;
  mib.SendStall = 3;
  mib.CurCwnd = 1460.0;
  const auto flat = flatten(mib);
  bool saw_stall = false, saw_cwnd = false;
  for (const auto& [name, value] : flat) {
    if (name == "SendStall") {
      saw_stall = true;
      EXPECT_DOUBLE_EQ(value, 3.0);
    }
    if (name == "CurCwnd") {
      saw_cwnd = true;
      EXPECT_DOUBLE_EQ(value, 1460.0);
    }
  }
  EXPECT_TRUE(saw_stall);
  EXPECT_TRUE(saw_cwnd);
}

TEST(MibTest, FlattenOrderIsStable) {
  const auto a = flatten(Mib{});
  const auto b = flatten(Mib{});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].first, b[i].first);
}

TEST(MibTest, UpdateCwndTracksHighWaterMark) {
  Mib mib;
  mib.update_cwnd(100.0);
  mib.update_cwnd(500.0);
  mib.update_cwnd(200.0);
  EXPECT_DOUBLE_EQ(mib.CurCwnd, 200.0);
  EXPECT_DOUBLE_EQ(mib.MaxCwnd, 500.0);
}

TEST(MibTest, StreamOutputMentionsVariables) {
  Mib mib;
  mib.Timeouts = 2;
  std::ostringstream os;
  os << mib;
  EXPECT_NE(os.str().find("Timeouts=2"), std::string::npos);
}

TEST(PollingAgentTest, SamplesOnSchedule) {
  sim::Simulation sim;
  Mib mib;
  PollingAgent agent{sim, [&]() -> const Mib& { return mib; }, 100_ms};
  agent.start();
  sim.at(250_ms, [&] { mib.SendStall = 7; });
  sim.run_until(1_s);
  const auto& series = agent.series("SendStall");
  // Samples at 0,100,...,1000 ms = 11 polls.
  EXPECT_EQ(agent.polls_taken(), 11u);
  EXPECT_DOUBLE_EQ(series.value_at(200_ms), 0.0);
  EXPECT_DOUBLE_EQ(series.value_at(300_ms), 7.0);
}

TEST(PollingAgentTest, StopHaltsPolling) {
  sim::Simulation sim;
  Mib mib;
  PollingAgent agent{sim, [&]() -> const Mib& { return mib; }, 10_ms};
  agent.start();
  sim.at(55_ms, [&] { agent.stop(); });
  sim.run_until(1_s);
  EXPECT_LE(agent.polls_taken(), 7u);
}

// stop() then start() before the old chain's next tick: that tick must end
// its chain rather than poll beside the new one.
TEST(PollingAgentTest, RestartKeepsOneSchedule) {
  sim::Simulation sim;
  Mib mib;
  PollingAgent agent{sim, [&]() -> const Mib& { return mib; }, 10_ms};
  agent.start();
  sim.at(15_ms, [&] {
    agent.stop();
    agent.start();
  });
  sim.run_until(100_ms);
  std::vector<std::int64_t> poll_ms;
  for (const auto& sample : agent.series("SendStall").samples()) {
    poll_ms.push_back(sample.t.nanoseconds_count() / 1'000'000);
  }
  EXPECT_EQ(poll_ms, (std::vector<std::int64_t>{0, 10, 15, 25, 35, 45, 55, 65, 75, 85, 95}));
  EXPECT_EQ(agent.polls_taken(), 11u);
}

TEST(PollingAgentTest, UnknownVariableThrows) {
  sim::Simulation sim;
  Mib mib;
  PollingAgent agent{sim, [&]() -> const Mib& { return mib; }, 10_ms};
  agent.start();
  sim.run_until(20_ms);
  EXPECT_THROW((void)agent.series("NotAVariable"), std::out_of_range);
}

TEST(PollingAgentTest, ValidatesConstruction) {
  sim::Simulation sim;
  Mib mib;
  EXPECT_THROW(PollingAgent(sim, nullptr, 10_ms), std::invalid_argument);
  EXPECT_THROW(PollingAgent(sim, [&]() -> const Mib& { return mib; }, 0_ms),
               std::invalid_argument);
}

TEST(PollingAgentTest, AllFlattenedVariablesBecomeSeries) {
  sim::Simulation sim;
  Mib mib;
  PollingAgent agent{sim, [&]() -> const Mib& { return mib; }, 10_ms};
  agent.start();
  sim.run_until(20_ms);
  EXPECT_EQ(agent.variable_names().size(), flatten(Mib{}).size());
  for (const auto& name : agent.variable_names()) {
    EXPECT_NO_THROW((void)agent.series(name));
  }
}

}  // namespace
}  // namespace rss::web100
