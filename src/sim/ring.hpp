#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace rss::sim {

/// FIFO on a power-of-two circular buffer that doubles when full and never
/// shrinks, so a warm ring never allocates. The packet path's queues (IFQs,
/// AQMs, link wires) cycle millions of elements through a bounded
/// occupancy; std::deque would allocate and free a 512-byte node every few
/// of them. Elements are indexed from the front; slots outside
/// [0, size()) hold stale values, so T must be default-constructible and
/// cheap to copy.
template <class T>
class Ring {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The `i`-th element from the front; requires i < size().
  [[nodiscard]] T& operator[](std::size_t i) { return slots_[(head_ + i) & (slots_.size() - 1)]; }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  [[nodiscard]] const T& front() const { return (*this)[0]; }

  void push_back(const T& value) {
    if (size_ == slots_.size()) grow();
    (*this)[size_] = value;
    ++size_;
  }

  /// Drop the front element; requires !empty().
  void pop_front() {
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    std::vector<T> bigger(slots_.empty() ? 16 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_{0};
  std::size_t size_{0};
};

}  // namespace rss::sim
