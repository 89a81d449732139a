// Generation-checked slot arena for per-operation state.
//
// An owner that hands out continuations for a multi-step operation (an RPC
// call, a keyed fetch) keeps the operation's state here and lets each
// continuation capture only {owner, Id}: 16 trivially-copyable bytes, which
// std::function stores inline, so no continuation copies or allocates a
// closure.  Release retires the Id by bumping its slot's generation, so a
// continuation that fires after the operation ended finds Find() ==
// nullptr and does nothing — the same (slot, generation) idiom as
// odsim::EventHandle.
//
// Released slots are reused, so once the arena has reached its peak
// number of live operations Acquire allocates nothing.  Each entry lives in
// its own allocation, made once per slot: a reference to a live entry stays
// valid while the owner calls out to code that acquires more slots.

#ifndef SRC_UTIL_SLOT_ARENA_H_
#define SRC_UTIL_SLOT_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/check.h"

namespace odutil {

template <typename T>
class SlotArena {
 public:
  struct Id {
    uint32_t slot = 0;
    uint32_t gen = 0;
  };

  SlotArena() = default;
  SlotArena(const SlotArena&) = delete;
  SlotArena& operator=(const SlotArena&) = delete;

  // Takes a free slot, which holds a default-constructed T.
  Id Acquire() {
    uint32_t slot = free_head_;
    if (slot != kNoSlot) {
      free_head_ = entries_[slot]->next_free;
    } else {
      slot = static_cast<uint32_t>(entries_.size());
      entries_.push_back(std::make_unique<Entry>());
    }
    Entry& entry = *entries_[slot];
    entry.next_free = kLive;
    ++live_;
    return Id{slot, entry.gen};
  }

  // The entry `id` names, or nullptr once it has been released.
  T* Find(Id id) {
    if (id.slot >= entries_.size()) {
      return nullptr;
    }
    Entry& entry = *entries_[id.slot];
    return entry.gen == id.gen && entry.next_free == kLive ? &entry.value
                                                           : nullptr;
  }

  // As Find, for an id the caller knows is live.
  T& Get(Id id) {
    T* value = Find(id);
    OD_CHECK(value != nullptr);
    return *value;
  }

  // Resets the entry to a default T (dropping whatever it held) and
  // retires `id`: every copy of it stops resolving.  Requires a live id.
  void Release(Id id) {
    T& value = Get(id);
    value = T{};
    Entry& entry = *entries_[id.slot];
    ++entry.gen;
    entry.next_free = free_head_;
    free_head_ = id.slot;
    --live_;
  }

  // Entries acquired and not yet released.
  size_t live() const { return live_; }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  static constexpr uint32_t kLive = UINT32_MAX - 1;

  struct Entry {
    T value{};
    uint32_t gen = 0;
    // Free: the next free slot.  Live: kLive.
    uint32_t next_free = kNoSlot;
  };

  std::vector<std::unique_ptr<Entry>> entries_;
  uint32_t free_head_ = kNoSlot;
  size_t live_ = 0;
};

}  // namespace odutil

#endif  // SRC_UTIL_SLOT_ARENA_H_
