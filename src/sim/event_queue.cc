#include "src/sim/event_queue.h"

#include <utility>

#include "src/util/check.h"

namespace odsim {

namespace {
constexpr size_t kArity = 4;
// Compact once at least this many cancelled events have accumulated AND
// they outnumber live ones; small queues just skip-on-pop.
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
    free_head_ = slots_[slot].next;
    return slot;
  }
  OD_CHECK(slots_.size() < (size_t{1} << kSlotBits));
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventQueue::FreeSlot(uint32_t slot) const {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  ++s.gen;
  s.next = free_head_;
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
  s.seq = next_seq_++;
  s.next = kNoSlot;
  if (tail_ != kNoSlot && tail_time_ == at) {
    slots_[tail_].next = slot;
  } else {
    heap_.push_back(HeapEntry{at, (s.seq << kSlotBits) | uint64_t{slot}});
    SiftUp(heap_.size() - 1);
    tail_time_ = at;
  }
  tail_ = slot;
  ++queued_;
  return EventHandle(this, slot, s.gen);
}

void EventQueue::CancelSlot(uint32_t slot, uint32_t gen) {
  if (slot >= slots_.size()) {
    return;
  }
  Slot& s = slots_[slot];
  if (s.gen != gen || s.cancelled()) {
    return;  // Already fired, cancelled, or the slot was recycled.
  }
  s.seq = kCancelledSeq;
  s.fn = nullptr;  // Release the closure (and anything it keeps alive) now.
  ++cancelled_pending_;
  if (cancelled_pending_ >= kCompactMinCancelled &&
      cancelled_pending_ * 2 > queued_) {
    Compact();
  }
}

bool EventQueue::SlotPending(uint32_t slot, uint32_t gen) const {
  if (slot >= slots_.size()) {
    return false;
  }
  const Slot& s = slots_[slot];
  return s.gen == gen && !s.cancelled();
}

void EventQueue::Compact() {
  auto keep = heap_.begin();
  for (HeapEntry e : heap_) {
    // Relink the chain through its survivors; the key stays the first
    // event's, which still orders the chain among its neighbours.
    uint32_t head = kNoSlot;
    uint32_t* link = &head;
    for (uint32_t slot = e.slot(); slot != kNoSlot;) {
      uint32_t next = slots_[slot].next;
      if (slots_[slot].cancelled()) {
        if (slot == tail_) {
          tail_ = kNoSlot;
        }
        FreeSlot(slot);
        --queued_;
      } else {
        *link = slot;
        link = &slots_[slot].next;
      }
      slot = next;
    }
    *link = kNoSlot;
    if (head != kNoSlot) {
      e.set_slot(head);
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

uint32_t EventQueue::TakeHead() const {
  HeapEntry& top = heap_.front();
  uint32_t head = top.slot();
  uint32_t next = slots_[head].next;
  if (next != kNoSlot) {
    top.set_slot(next);
  } else {
    RemoveTop();
  }
  if (head == tail_) {
    tail_ = kNoSlot;
  }
  --queued_;
  return head;
}

void EventQueue::SkipCancelled() const {
  while (!heap_.empty() && slots_[heap_.front().slot()].cancelled()) {
    FreeSlot(TakeHead());
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
  SimTime time = heap_.front().time;
  uint32_t head = TakeHead();
  Popped popped{time, std::move(slots_[head].fn)};
  FreeSlot(head);
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
  return slots_[top.slot()].seq < seq;
}

bool EventQueue::PopIfAtOrBefore(SimTime deadline, Popped* out) {
  SkipCancelled();
  if (heap_.empty() || heap_.front().time > deadline) {
    return false;
  }
  out->time = heap_.front().time;
  uint32_t head = TakeHead();
  out->fn = std::move(slots_[head].fn);
  FreeSlot(head);
  return true;
}

}  // namespace odsim
