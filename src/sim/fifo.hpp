// A first-in first-out queue that costs nothing while it is empty.
//
// std::deque allocates a 512-byte chunk when it is constructed, so a
// per-node queue that is empty nearly all of its life still costs half a
// kilobyte per cell on a large grid. Fifo is a vector plus a head index:
// pop_front advances the head, and a push that finds the storage full
// moves the live tail to the front when the popped prefix is at least as
// long as it, and grows the storage otherwise. The queue starts with no
// storage at all, and its capacity stays under four times the most
// elements it ever held at once.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace dca::sim {

template <typename T>
class Fifo {
 public:
  using iterator = typename std::vector<T>::iterator;
  using const_iterator = typename std::vector<T>::const_iterator;

  [[nodiscard]] bool empty() const noexcept { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size() - head_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return items_.capacity(); }

  [[nodiscard]] const T& front() const {
    assert(!empty());
    return items_[head_];
  }
  [[nodiscard]] const T& back() const {
    assert(!empty());
    return items_.back();
  }
  /// The i-th element from the front.
  [[nodiscard]] const T& operator[](std::size_t i) const { return items_[head_ + i]; }

  void push_back(T value) {
    if (items_.size() == items_.capacity() && head_ >= size()) compact();
    items_.push_back(std::move(value));
  }

  void pop_front() {
    assert(!empty());
    if (++head_ == items_.size()) clear();
  }

  /// Removes every element and keeps the storage.
  void clear() noexcept {
    items_.clear();
    head_ = 0;
  }

  [[nodiscard]] iterator begin() {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  [[nodiscard]] iterator end() { return items_.end(); }
  [[nodiscard]] const_iterator begin() const {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  [[nodiscard]] const_iterator end() const { return items_.end(); }

  /// Removes the element at `it`, keeping the order of the rest; returns
  /// the iterator to the element after it.
  iterator erase(iterator it) {
    const iterator next = items_.erase(it);
    if (!empty()) return next;
    clear();
    return end();
  }

 private:
  /// Moves the live elements to the front of the storage.
  void compact() {
    items_.erase(items_.begin(), begin());
    head_ = 0;
  }

  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace dca::sim
