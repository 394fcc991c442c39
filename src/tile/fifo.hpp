#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace easydram::tile {

/// Bounded FIFO modelling EasyTile's hardware request/response queues.
/// Pushing into a full FIFO is a contract violation: the producers in this
/// repository (memory bus, tile control logic) check `full()` first, exactly
/// as the hardware applies backpressure.
///
/// Storage is a fixed ring buffer sized once at construction — like the
/// hardware queue it models, no allocation ever happens on push/pop. `T`
/// must be default-constructible (the ring is built eagerly) and movable.
template <typename T>
class BoundedFifo {
 public:
  explicit BoundedFifo(std::size_t capacity)
      : capacity_(capacity), items_(capacity) {
    EASYDRAM_EXPECTS(capacity > 0);
  }

  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= capacity_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  void push(const T& item) { tail_slot() = item; }
  void push(T&& item) { tail_slot() = std::move(item); }

  T pop() {
    EASYDRAM_EXPECTS(!empty());
    T item = std::move(items_[head_]);
    advance_head();
    return item;
  }

  /// Drops the head element without materializing a copy/move of it — for
  /// consumers that already read what they need through front().
  void drop() {
    EASYDRAM_EXPECTS(!empty());
    advance_head();
  }

  const T& front() const {
    EASYDRAM_EXPECTS(!empty());
    return items_[head_];
  }

 private:
  /// Claims the slot behind the last element. Precondition: !full().
  T& tail_slot() {
    EASYDRAM_EXPECTS(!full());
    std::size_t tail = head_ + size_;
    if (tail >= capacity_) tail -= capacity_;
    ++size_;
    return items_[tail];
  }

  void advance_head() {
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    --size_;
  }

  std::size_t capacity_;
  std::vector<T> items_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace easydram::tile
