#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace rss::sim::alloc_guard {

/// Global heap-allocation counters, bumped by the replacement operator
/// new/delete that RSS_ALLOC_GUARD_IMPLEMENT emits. Zero-initialized,
/// lock-free; counting is relaxed — the guard asserts *totals* after
/// joining any threads, it is not a synchronization primitive.
struct Counters {
  std::atomic<std::uint64_t> allocations{0};
  std::atomic<std::uint64_t> deallocations{0};
  std::atomic<std::uint64_t> bytes{0};
};

inline Counters& counters() {
  static Counters instance;
  return instance;
}

/// True in exactly one translation unit per binary — the one that defined
/// RSS_ALLOC_GUARD_IMPLEMENT before including this header — so tests can
/// assert the hook is actually installed instead of silently measuring
/// nothing.
bool installed();

/// Scope that samples the global allocation count at construction.
/// `allocations()` returns the number of operator-new calls since then:
///
///   AllocScope guard;
///   ... steady-state hot loop ...
///   EXPECT_EQ(guard.allocations(), 0u);
///
/// The counters are process-global, so keep unrelated allocation out of the
/// scoped region (gtest assertion *failures* allocate; passes do not).
class AllocScope {
 public:
  AllocScope()
      : start_allocs_{counters().allocations.load(std::memory_order_relaxed)},
        start_bytes_{counters().bytes.load(std::memory_order_relaxed)} {}

  [[nodiscard]] std::uint64_t allocations() const {
    return counters().allocations.load(std::memory_order_relaxed) - start_allocs_;
  }
  [[nodiscard]] std::uint64_t bytes() const {
    return counters().bytes.load(std::memory_order_relaxed) - start_bytes_;
  }

 private:
  std::uint64_t start_allocs_;
  std::uint64_t start_bytes_;
};

}  // namespace rss::sim::alloc_guard

// ---------------------------------------------------------------------------
// Replacement global operator new/delete — emitted only where
// RSS_ALLOC_GUARD_IMPLEMENT is defined (one TU per test binary; the standard
// forbids replacing these in more than one place). Counting every form that
// allocates (throwing, nothrow, array, aligned) keeps the zero-allocation
// assertions airtight: a hot path that switched to nothrow or over-aligned
// new would still trip the guard.
// ---------------------------------------------------------------------------
#ifdef RSS_ALLOC_GUARD_IMPLEMENT

#include <cstdlib>
#include <new>

namespace rss::sim::alloc_guard {
bool installed() { return true; }

namespace detail {

inline void* counted_alloc(std::size_t size) {
  counters().allocations.fetch_add(1, std::memory_order_relaxed);
  counters().bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size);  // NOLINT(cppcoreguidelines-no-malloc)
}

inline void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  counters().allocations.fetch_add(1, std::memory_order_relaxed);
  counters().bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, size) != 0) return nullptr;
  return p;
}

// Never inlined: once both the replaced operator new and this free were
// inlined into one caller, GCC would see free() on a new-expression's
// pointer and warn (-Wmismatched-new-delete), an error under RSS_WERROR.
[[gnu::noinline]] inline void counted_free(void* p) {
  if (p != nullptr) counters().deallocations.fetch_add(1, std::memory_order_relaxed);
  std::free(p);  // NOLINT(cppcoreguidelines-no-malloc)
}

}  // namespace detail
}  // namespace rss::sim::alloc_guard

// NOLINTBEGIN(misc-definitions-in-headers) — this block is compiled into
// exactly one TU, gated by RSS_ALLOC_GUARD_IMPLEMENT.
void* operator new(std::size_t size) {
  void* p = rss::sim::alloc_guard::detail::counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return rss::sim::alloc_guard::detail::counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return rss::sim::alloc_guard::detail::counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = rss::sim::alloc_guard::detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { rss::sim::alloc_guard::detail::counted_free(p); }
void operator delete[](void* p) noexcept { rss::sim::alloc_guard::detail::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  rss::sim::alloc_guard::detail::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  rss::sim::alloc_guard::detail::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  rss::sim::alloc_guard::detail::counted_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  rss::sim::alloc_guard::detail::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  rss::sim::alloc_guard::detail::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  rss::sim::alloc_guard::detail::counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  rss::sim::alloc_guard::detail::counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  rss::sim::alloc_guard::detail::counted_free(p);
}
// NOLINTEND(misc-definitions-in-headers)

#endif  // RSS_ALLOC_GUARD_IMPLEMENT
