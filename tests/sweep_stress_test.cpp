// Race-detector stress for parallel_sweep's cancellation and result paths.
//
// sweep_cancel_test pins the error *semantics*; this suite hammers the
// *interleavings*: many short racing rounds where a mid-sweep worker throws
// while siblings are still claiming points and writing results. Under
// -DRSS_SANITIZE=thread (the CI TSan job) every round is a fresh chance for
// the detector to observe an unsynchronized claim/cancel/collect pair; on a
// normal build it still verifies that whichever points report completion
// really did complete (no torn or lost writes through the results vector).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/sweep.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace {

using rss::scenario::parallel_map;
using rss::scenario::parallel_sweep;

/// A miniature but real event-core workload, so worker threads exercise the
/// same Scheduler machinery a production sweep point does (each point owns
/// an independent scheduler — the only sanctioned threading model).
std::uint64_t run_mini_simulation(std::size_t point) {
  using namespace rss::sim::literals;
  rss::sim::Scheduler s{point % 2 == 0 ? rss::sim::QueueBackend::kBinaryHeap
                                       : rss::sim::QueueBackend::kCalendarQueue};
  std::uint64_t fired = 0;
  // A persistent slot re-armed from its own firing, 3 us apart, as a NIC
  // re-arms its completion: 50 + point % 7 firings.
  struct Burst {
    rss::sim::Scheduler* s;
    rss::sim::EventId slot;
    std::uint64_t* fired;
    std::uint64_t left;
    static void fire(void* self) {
      auto* burst = static_cast<Burst*>(self);
      ++*burst->fired;
      if (--burst->left == 0) return;
      rss::sim::Scheduler& sched = *burst->s;
      sched.arm_persistent(burst->slot, 0, sched.draw_rank(0), sched.now(), sched.now() + 3_us);
    }
  };
  Burst burst{&s, {}, &fired, 50 + point % 7};
  burst.slot = s.add_persistent(&Burst::fire, &burst);
  s.arm_persistent(burst.slot, 0, s.draw_rank(0), s.now(), 1_us);
  for (int i = 0; i < 20; ++i) {
    const auto id = s.schedule_in(rss::sim::Time::microseconds(5 + i), [&fired] { ++fired; });
    if (i % 3 == 0) s.cancel(id);
  }
  s.run();
  return fired;
}

TEST(SweepStress, MidSweepThrowWhileSiblingsRunSimulations) {
  constexpr std::size_t kPoints = 64;
  constexpr std::size_t kThrowAt = kPoints / 2;
  for (int round = 0; round < 25; ++round) {
    std::vector<std::atomic<std::uint64_t>> results(kPoints);
    try {
      parallel_sweep(
          kPoints,
          [&](std::size_t i) {
            if (i == kThrowAt) throw std::runtime_error{"mid-sweep failure"};
            results[i].store(run_mini_simulation(i) + 1, std::memory_order_relaxed);
          },
          8);
      FAIL() << "expected the mid-sweep error to rethrow (round " << round << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "mid-sweep failure");
    }
    // The throwing point must never report a result, and every point that
    // did report must carry the exact deterministic event count (+1 flag).
    EXPECT_EQ(results[kThrowAt].load(), 0u);
    for (std::size_t i = 0; i < kPoints; ++i) {
      const std::uint64_t r = results[i].load();
      if (r != 0) {
        EXPECT_EQ(r - 1, run_mini_simulation(i)) << "point " << i;
      }
    }
  }
}

TEST(SweepStress, RacingThrowersAgreeOnASingleWinner) {
  // Several points throw nearly simultaneously; exactly one exception may
  // surface and the sweep must still join every worker (TSan reports a
  // missing join as a thread leak at exit).
  constexpr std::size_t kPoints = 256;
  for (int round = 0; round < 25; ++round) {
    std::atomic<int> throws_started{0};
    try {
      parallel_sweep(
          kPoints,
          [&](std::size_t i) {
            if (i % 17 == 0) {
              throws_started.fetch_add(1, std::memory_order_relaxed);
              throw std::runtime_error{std::to_string(i)};
            }
          },
          8);
      FAIL() << "expected rethrow";
    } catch (const std::runtime_error& e) {
      const std::size_t winner = std::stoul(e.what());
      EXPECT_EQ(winner % 17, 0u);
    }
    EXPECT_GE(throws_started.load(), 1);
  }
}

TEST(SweepStress, ParallelMapUnderContentionIsExact) {
  std::vector<std::size_t> inputs(512);
  for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = i;
  const auto out = parallel_map(inputs, [](std::size_t i) { return run_mini_simulation(i); }, 8);
  ASSERT_EQ(out.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(out[i], run_mini_simulation(i)) << "point " << i;
  }
}

}  // namespace
