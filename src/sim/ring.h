#ifndef POSTBLOCK_SIM_RING_H_
#define POSTBLOCK_SIM_RING_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace postblock::sim {

/// Recycled FIFO: a power-of-two ring over a vector. Unlike std::deque,
/// which allocates and frees blocks as elements cycle through, the ring
/// keeps its capacity, so a queue in steady state never touches the
/// allocator. Popping moves the element out, so a slot keeps nothing a
/// moved-from T would not (an empty callback, for the move-only ones).
///
/// Queues that are more than a FIFO (a scheduler scanning back from the
/// tail for a merge partner, or picking the highest priority) index it
/// front to back and erase from the middle; erase shifts the later
/// elements forward, so the survivors keep their order.
template <typename T>
class Ring {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// The i-th element from the front (0 = front).
  T& operator[](std::size_t i) {
    assert(i < count_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  /// Removes and returns the i-th element; later elements move up one
  /// slot, keeping their order.
  T erase(std::size_t i) {
    assert(i < count_);
    if (i == 0) return pop_front();
    T v = std::move((*this)[i]);
    for (std::size_t j = i + 1; j < count_; ++j) {
      (*this)[j - 1] = std::move((*this)[j]);
    }
    --count_;
    return v;
  }

  void push_back(T v) {
    if (count_ == buf_.size()) Grow();
    buf_[(head_ + count_) & (buf_.size() - 1)] = std::move(v);
    ++count_;
  }

  T& front() {
    assert(count_ > 0);
    return buf_[head_];
  }

  T pop_front() {
    assert(count_ > 0);
    T v = std::move(buf_[head_]);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
    return v;
  }

  void clear() {
    while (count_ > 0) (void)pop_front();
    head_ = 0;
  }

 private:
  void Grow() {
    const std::size_t new_cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<T> next(new_cap);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace postblock::sim

#endif  // POSTBLOCK_SIM_RING_H_
