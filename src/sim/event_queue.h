// Pending-event set for the discrete-event simulator.
//
// Events at equal timestamps fire in scheduling order (FIFO), which the
// sequence number guarantees.  Storage is a slot arena plus a 4-ary heap
// of trivially-copyable entries: Push and Pop allocate nothing beyond
// amortized vector growth, and handles are (slot, generation) pairs that
// go inert when the slot is recycled.
//
// Events pushed back to back at one timestamp share a single heap entry:
// they form a chain linked through their slots, and the heap entry points
// at the chain's head.  Popping a head that has a successor just moves the
// entry to the successor, with no sift.  Device fleets put most of their
// traffic on shared ticks (every monitor, director and probe fires on the
// same second), so most pops take that path.  Only the newest chain ever
// grows, so chains at one timestamp hold disjoint, increasing runs of
// sequence numbers, and ordering the heap by (time, first seq) gives
// exactly the (time, seq) order of the events themselves.
//
// Cancellation frees the event closure immediately but leaves the slot
// queued, to be skipped when it reaches a chain head; once enough
// cancelled slots pile up the queue is compacted in one pass, so
// cancel-heavy workloads (RPC deadline timers that are almost always
// cancelled) stay bounded.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/time.h"

namespace odsim {

using EventFn = std::function<void()>;

class EventQueue;

// Handle that allows cancelling a scheduled event.  Copyable; all copies
// refer to the same event.  A handle is only valid while its queue is
// alive: cancel timers before destroying the simulator that owns them
// (destruction order already guarantees this everywhere in the tree).
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it has not fired yet.  Idempotent.
  void Cancel();

  // True if the event is still scheduled (not fired, not cancelled).
  bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, uint32_t slot, uint32_t gen)
      : queue_(queue), slot_(slot), gen_(gen) {}

  EventQueue* queue_ = nullptr;
  uint32_t slot_ = 0;
  uint32_t gen_ = 0;
};

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Inserts an event; returns a handle usable for cancellation.
  EventHandle Push(SimTime at, EventFn fn);

  bool empty() const;

  // Time of the earliest non-cancelled event.  Requires !empty().
  SimTime NextTime() const;

  // Removes and returns the earliest non-cancelled event.  Requires !empty().
  struct Popped {
    SimTime time;
    EventFn fn;
  };
  Popped Pop();

  // Pops the earliest event into `out` if one exists at or before
  // `deadline`; returns false (leaving `out` alone) otherwise.  The
  // simulator main loops use this to make one top-of-heap inspection per
  // event instead of three (empty / NextTime / Pop).
  bool PopIfAtOrBefore(SimTime deadline, Popped* out);

  // Consumes the sequence number the next Push would have taken, without
  // inserting anything.  An owner that keeps one event outside the heap
  // (the simulator's in-flight CPU slice) files it under (time, this seq),
  // so it keeps exactly the place in the (time, seq) order that a pushed
  // event would have had.
  uint64_t ReserveSeq() { return next_seq_++; }

  // True if the earliest non-cancelled event orders strictly before
  // (at, seq) in the (time, seq) order; false when the queue is empty.
  bool TopOrdersBefore(SimTime at, uint64_t seq) const;

  // Queued events, cancelled ones awaiting a skip or compaction included.
  size_t size_for_testing() const { return queued_; }
  // Heap entries: one per same-timestamp chain.
  size_t heap_entries_for_testing() const { return heap_.size(); }
  // Cancelled events still queued (awaiting skip/compaction).
  size_t cancelled_count_for_testing() const { return cancelled_pending_; }

 private:
  friend class EventHandle;

  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // 16 trivially-copyable bytes, one per chain: the time and the sequence
  // number of the chain's first event live in the key, the chain's current
  // head slot in the low 24 bits of seq_slot.  Comparing seq_slot orders by
  // sequence (sequences are unique, so the slot bits never decide), and a
  // pop that advances the head rewrites only the slot bits, so the key and
  // the heap property are untouched.  The heap is 4-ary: one 16-byte entry
  // makes each 4-child sibling group exactly one cache line, and the
  // shallower tree roughly halves the cache misses per sift compared to a
  // binary heap.  (time, seq) is a strict total order, so the pop sequence
  // is independent of heap arity and internal layout.
  struct HeapEntry {
    SimTime time;
    uint64_t seq_slot;

    uint32_t slot() const { return static_cast<uint32_t>(seq_slot & kSlotMask); }
    void set_slot(uint32_t slot) { seq_slot = (seq_slot & ~kSlotMask) | slot; }
  };
  static constexpr int kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  static bool EarlierEntry(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.seq_slot < b.seq_slot;
  }
  // A cancelled event's slot stays queued until it is skipped or compacted
  // away; its seq is overwritten with this sentinel, which no live event
  // can hold, so the flag adds no padding to the slot.
  static constexpr uint64_t kCancelledSeq = UINT64_MAX;
  struct Slot {
    EventFn fn;
    uint64_t seq = 0;
    uint32_t gen = 0;
    // A slot is either queued or free: queued, `next` is the following
    // event of its chain; free, the next free slot.
    uint32_t next = kNoSlot;

    bool cancelled() const { return seq == kCancelledSeq; }
  };

  uint32_t AllocSlot();
  // Recycles a slot that has left its chain; bumps gen so stale handles
  // are inert.  Const so SkipCancelled can call it; touches only the
  // mutable arena state.
  void FreeSlot(uint32_t slot) const;
  void CancelSlot(uint32_t slot, uint32_t gen);
  bool SlotPending(uint32_t slot, uint32_t gen) const;
  // One-pass unlinking of all cancelled events followed by a heap rebuild.
  void Compact();

  // 4-ary heap primitives over heap_.  Const because SkipCancelled needs
  // them; they touch only the mutable heap state.
  void SiftUp(size_t i) const;
  void SiftDown(size_t i) const;
  // Removes heap_[0], preserving the heap property.
  void RemoveTop() const;

  // Unlinks the head of the top chain and returns its slot, still
  // allocated.  Requires a non-empty heap.
  uint32_t TakeHead() const;

  // Drops cancelled events from the head of the top chain.  Const because
  // the queue's logical contents don't change, matching empty()/NextTime().
  void SkipCancelled() const;

  mutable std::vector<HeapEntry> heap_;
  mutable std::vector<Slot> slots_;
  mutable uint32_t free_head_ = kNoSlot;
  mutable size_t cancelled_pending_ = 0;
  mutable size_t queued_ = 0;
  // The open tail: the last pushed slot, for as long as it is queued, and
  // its time.  A push at that time joins its chain.
  mutable uint32_t tail_ = kNoSlot;
  SimTime tail_time_;
  uint64_t next_seq_ = 0;
};

}  // namespace odsim

#endif  // SRC_SIM_EVENT_QUEUE_H_
