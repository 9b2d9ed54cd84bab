#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace rss::sim {

class InlineCallback;

/// Inline storage budget for scheduled callbacks. 48 bytes holds every hot
/// closure in the tree (the largest is Simulation::every's tick at 32) with
/// headroom, while keeping a scheduler arena slot within one cache line
/// alongside its bookkeeping fields.
inline constexpr std::size_t kInlineCallbackCapacity = 48;

namespace detail {

template <typename F>
concept InlineCallbackInvocable =
    !std::is_same_v<std::remove_cvref_t<F>, InlineCallback> &&
    std::is_invocable_r_v<void, std::remove_cvref_t<F>&>;

/// Whether a callable fits the inline buffer. Nothrow move construction is
/// required because the scheduler relocates callbacks (arena growth, and out
/// of the arena before a callback runs) at points where an exception would
/// corrupt the event queue.
template <typename F>
concept InlineCallbackStorable =
    sizeof(std::remove_cvref_t<F>) <= kInlineCallbackCapacity &&
    alignof(std::remove_cvref_t<F>) <= alignof(std::max_align_t) &&
    std::is_nothrow_move_constructible_v<std::remove_cvref_t<F>>;

}  // namespace detail

/// Move-only `void()` callable with small-buffer storage and *no* heap
/// fallback: a capture larger than kInlineCallbackCapacity (or over-aligned,
/// or throwing-move) is rejected at compile time via the deleted overload
/// below, so `Scheduler::schedule_at` can never allocate for the callback.
/// std::function allocated on every event it held. The per-packet and
/// per-ACK owners (NICs, link wires, sim::Timer) hold no callback at all:
/// they re-arm persistent scheduler slots.
class InlineCallback {
 public:
  static constexpr std::size_t kCapacity = kInlineCallbackCapacity;

  // User-provided (not `= default`) so `const InlineCallback cb;` is legal:
  // the byte buffer is deliberately left uninitialized when empty.
  constexpr InlineCallback() noexcept {}  // NOLINT(modernize-use-equals-default)

  template <typename F>
    requires(detail::InlineCallbackInvocable<F> && detail::InlineCallbackStorable<F>)
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::remove_cvref_t<F>;
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    invoke_ = [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); };
    manage_ = [](Op op, void* s, void* dst) noexcept {
      Fn* self = std::launder(reinterpret_cast<Fn*>(s));
      if (op == Op::kRelocate) ::new (dst) Fn(std::move(*self));
      self->~Fn();
    };
  }

  /// Oversized / over-aligned / throwing-move callables: shrink the capture
  /// (store bulky state in the owning object and capture a pointer) — there
  /// is deliberately no heap fallback.
  template <typename F>
    requires(detail::InlineCallbackInvocable<F> && !detail::InlineCallbackStorable<F>)
  InlineCallback(F&&) = delete;

  InlineCallback(InlineCallback&& other) noexcept { move_from(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { reset(); }

  void operator()() {
    assert(invoke_ && "InlineCallback: invoking empty callback");
    invoke_(storage_);
  }

  [[nodiscard]] explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  enum class Op : std::uint8_t { kDestroy, kRelocate };

  void reset() noexcept {
    if (manage_) manage_(Op::kDestroy, storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  /// Relocate `other`'s callable into our (empty) storage; `other` is left
  /// empty. One manager call move-constructs and destroys the source, so
  /// the moved-from callable's destructor runs exactly once.
  void move_from(InlineCallback& other) noexcept {
    if (!other.manage_) return;
    other.manage_(Op::kRelocate, other.storage_, storage_);
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) std::byte storage_[kCapacity];
  void (*invoke_)(void*) = nullptr;
  void (*manage_)(Op, void*, void*) = nullptr;
};

}  // namespace rss::sim
