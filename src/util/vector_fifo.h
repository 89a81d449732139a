// FIFO queue on a vector with a moving head.
//
// std::deque allocates a block map and a first block as soon as it is
// constructed, whether or not anything ever queues; a device fleet holds
// thousands of mostly idle queues.  VectorFifo holds no memory until the
// first push, and a queue that drains to empty resets its head without
// freeing its capacity, so a queue that fills and drains repeatedly stops
// allocating.  A queue that stays backlogged never drains; it drops its
// spent prefix once that prefix is at least half the vector (amortized
// O(1) per pop).

#ifndef SRC_UTIL_VECTOR_FIFO_H_
#define SRC_UTIL_VECTOR_FIFO_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace odutil {

template <typename T>
class VectorFifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  size_t size() const { return items_.size() - head_; }

  void push_back(T item) { items_.push_back(std::move(item)); }

  // Removes and returns the oldest item.
  T pop_front() {
    OD_DCHECK(!empty());
    T item = std::move(items_[head_++]);
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ >= kCompactHead && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return item;
  }

  // Spent entries still held ahead of the oldest item; exposed for tests.
  size_t spent() const { return head_; }

 private:
  // Spent entries tolerated before a backlogged queue compacts.
  static constexpr size_t kCompactHead = 32;

  std::vector<T> items_;  // items_[head_..] in arrival order.
  size_t head_ = 0;
};

}  // namespace odutil

#endif  // SRC_UTIL_VECTOR_FIFO_H_
