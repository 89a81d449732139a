#include "src/sim/event_queue.h"

#include <utility>

#include "src/util/check.h"

namespace odsim {

namespace {
constexpr size_t kArity = 4;
// Compact once at least this many cancelled entries have accumulated AND
// they outnumber live entries; small queues just skip-on-pop.
constexpr size_t kCompactMinCancelled = 64;
}  // namespace

void EventHandle::Cancel() {
  if (queue_ != nullptr) {
    queue_->CancelSlot(slot_, gen_);
  }
}

bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->SlotPending(slot_, gen_);
}

uint32_t EventQueue::AllocSlot() {
  if (free_head_ != kNoSlot) {
    uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  OD_CHECK(slots_.size() < (size_t{1} << kSlotBits));
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventQueue::FreeSlot(uint32_t slot) const {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.cancelled = false;
  ++s.gen;
  s.next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::SiftUp(size_t i) const {
  HeapEntry e = heap_[i];
  while (i > 0) {
    size_t parent = (i - 1) / kArity;
    if (!EarlierEntry(e, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::SiftDown(size_t i) const {
  const size_t n = heap_.size();
  HeapEntry e = heap_[i];
  for (;;) {
    size_t first = i * kArity + 1;
    if (first >= n) {
      break;
    }
    size_t last = first + kArity < n ? first + kArity : n;
    size_t best = first;
    for (size_t c = first + 1; c < last; ++c) {
      if (EarlierEntry(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!EarlierEntry(heap_[best], e)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::RemoveTop() const {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0);
  }
}

EventHandle EventQueue::Push(SimTime at, EventFn fn) {
  uint32_t slot = AllocSlot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push_back(
      HeapEntry{at, (next_seq_++ << kSlotBits) | uint64_t{slot}});
  SiftUp(heap_.size() - 1);
  return EventHandle(this, slot, s.gen);
}

void EventQueue::CancelSlot(uint32_t slot, uint32_t gen) {
  if (slot >= slots_.size()) {
    return;
  }
  Slot& s = slots_[slot];
  if (s.gen != gen || s.cancelled) {
    return;  // Already fired, cancelled, or the slot was recycled.
  }
  s.cancelled = true;
  s.fn = nullptr;  // Release the closure (and anything it keeps alive) now.
  ++cancelled_pending_;
  if (cancelled_pending_ >= kCompactMinCancelled &&
      cancelled_pending_ * 2 > heap_.size()) {
    Compact();
  }
}

bool EventQueue::SlotPending(uint32_t slot, uint32_t gen) const {
  if (slot >= slots_.size()) {
    return false;
  }
  const Slot& s = slots_[slot];
  return s.gen == gen && !s.cancelled;
}

void EventQueue::Compact() {
  auto keep = heap_.begin();
  for (const HeapEntry& e : heap_) {
    if (slots_[e.slot()].cancelled) {
      FreeSlot(e.slot());
    } else {
      *keep++ = e;
    }
  }
  heap_.erase(keep, heap_.end());
  for (size_t i = heap_.size() / kArity + 1; i-- > 0;) {
    if (i < heap_.size()) {
      SiftDown(i);
    }
  }
  cancelled_pending_ = 0;
}

void EventQueue::SkipCancelled() const {
  while (!heap_.empty() && slots_[heap_.front().slot()].cancelled) {
    uint32_t slot = heap_.front().slot();
    RemoveTop();
    FreeSlot(slot);
    --cancelled_pending_;
  }
}

bool EventQueue::empty() const {
  SkipCancelled();
  return heap_.empty();
}

SimTime EventQueue::NextTime() const {
  SkipCancelled();
  OD_CHECK(!heap_.empty());
  return heap_.front().time;
}

EventQueue::Popped EventQueue::Pop() {
  SkipCancelled();
  OD_CHECK(!heap_.empty());
  HeapEntry top = heap_.front();
  RemoveTop();
  Popped popped{top.time, std::move(slots_[top.slot()].fn)};
  FreeSlot(top.slot());
  return popped;
}

bool EventQueue::TopOrdersBefore(SimTime at, uint64_t seq) const {
  SkipCancelled();
  if (heap_.empty()) {
    return false;
  }
  const HeapEntry& top = heap_.front();
  if (top.time != at) {
    return top.time < at;
  }
  return (top.seq_slot >> kSlotBits) < seq;
}

bool EventQueue::PopIfAtOrBefore(SimTime deadline, Popped* out) {
  SkipCancelled();
  if (heap_.empty() || heap_.front().time > deadline) {
    return false;
  }
  HeapEntry top = heap_.front();
  RemoveTop();
  out->time = top.time;
  out->fn = std::move(slots_[top.slot()].fn);
  FreeSlot(top.slot());
  return true;
}

}  // namespace odsim
