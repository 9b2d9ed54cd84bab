#include "scenario/sweep.hpp"

#include <algorithm>
#include <exception>
#include <mutex>

#include "scenario/execution.hpp"

namespace rss::scenario {

void parallel_sweep(std::size_t count, const std::function<void(std::size_t)>& fn,
                    std::size_t max_threads) {
  if (count == 0) return;
  // hardware_concurrency() may legitimately return 0 ("unknown"); fall back
  // to a single worker instead of clamping 0 into the thread count.
  ExecutionPolicy policy;
  policy.threads = max_threads;
  std::size_t workers = policy.resolve_threads(count);
  workers = std::clamp<std::size_t>(workers, 1, count);

  if (workers == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> cancelled{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker = [&] {
    for (;;) {
      // Once any worker has thrown, surviving workers must not drain the
      // remaining points: a sweep that is going to rethrow should stop
      // promptly instead of burning cores on results nobody will see.
      if (cancelled.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        {
          std::lock_guard lock{error_mutex};
          if (!first_error) first_error = std::current_exception();
        }
        cancelled.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace rss::scenario
