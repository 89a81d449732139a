#include "src/sim/event_queue.h"

#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace odsim {
namespace {

TEST(EventQueueTest, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(SimTime::Seconds(3), [&] { order.push_back(3); });
  q.Push(SimTime::Seconds(1), [&] { order.push_back(1); });
  q.Push(SimTime::Seconds(2), [&] { order.push_back(2); });
  while (!q.empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(SimTime::Seconds(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.Pop().fn();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  q.Push(SimTime::Seconds(9), [] {});
  q.Push(SimTime::Seconds(4), [] {});
  EXPECT_EQ(q.NextTime(), SimTime::Seconds(4));
}

TEST(EventQueueTest, CancelledEventIsSkipped) {
  EventQueue q;
  bool fired = false;
  EventHandle handle = q.Push(SimTime::Seconds(1), [&] { fired = true; });
  q.Push(SimTime::Seconds(2), [] {});
  handle.Cancel();
  EXPECT_EQ(q.NextTime(), SimTime::Seconds(2));
  q.Pop();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelAfterFireIsNoop) {
  EventQueue q;
  EventHandle handle = q.Push(SimTime::Seconds(1), [] {});
  auto popped = q.Pop();
  popped.fn();
  handle.Cancel();  // Must not crash or corrupt.
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, PendingLifecycle) {
  EventQueue q;
  EventHandle handle = q.Push(SimTime::Seconds(1), [] {});
  EXPECT_TRUE(handle.pending());
  handle.Cancel();
  EXPECT_FALSE(handle.pending());

  EventHandle fired = q.Push(SimTime::Seconds(2), [] {});
  q.Pop();
  EXPECT_FALSE(fired.pending());

  EventHandle empty;
  EXPECT_FALSE(empty.pending());
}

TEST(EventQueueTest, AllCancelledMeansEmpty) {
  EventQueue q;
  EventHandle a = q.Push(SimTime::Seconds(1), [] {});
  EventHandle b = q.Push(SimTime::Seconds(2), [] {});
  a.Cancel();
  b.Cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CopiedHandleCancelsSameEvent) {
  EventQueue q;
  bool fired = false;
  EventHandle a = q.Push(SimTime::Seconds(1), [&] { fired = true; });
  EventHandle b = a;
  b.Cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, PopIfAtOrBeforeRespectsDeadline) {
  EventQueue q;
  q.Push(SimTime::Seconds(5), [] {});
  EventQueue::Popped popped;
  EXPECT_FALSE(q.PopIfAtOrBefore(SimTime::Seconds(4), &popped));
  EXPECT_FALSE(q.empty());
  ASSERT_TRUE(q.PopIfAtOrBefore(SimTime::Seconds(5), &popped));
  EXPECT_EQ(popped.time, SimTime::Seconds(5));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.PopIfAtOrBefore(SimTime::Max(), &popped));
}

// A reserved sequence number takes the place in the (time, seq) order that
// a Push made at that moment would have had: after every earlier push at
// the same time, before every later one.
TEST(EventQueueTest, ReservedSeqOrdersLikeAPushAtThatMoment) {
  EventQueue q;
  SimTime at = SimTime::Seconds(5);
  q.Push(at, [] {});
  uint64_t reserved = q.ReserveSeq();
  EXPECT_EQ(q.size_for_testing(), 1u);  // Reserving inserts nothing.
  q.Push(at, [] {});
  EXPECT_TRUE(q.TopOrdersBefore(at, reserved));  // The earlier push.
  q.Pop();
  EXPECT_FALSE(q.TopOrdersBefore(at, reserved));  // The later push.
  // Time decides before sequence.
  EXPECT_TRUE(q.TopOrdersBefore(SimTime::Seconds(6), reserved));
  EXPECT_FALSE(q.TopOrdersBefore(SimTime::Seconds(4), reserved + 100));
  // Reservations and pushes draw from one counter.
  EXPECT_EQ(q.ReserveSeq(), reserved + 2);
}

TEST(EventQueueTest, TopOrdersBeforeSkipsCancelledEntries) {
  EventQueue q;
  EXPECT_FALSE(q.TopOrdersBefore(SimTime::Max(), 0));
  EventHandle early = q.Push(SimTime::Seconds(1), [] {});
  q.Push(SimTime::Seconds(10), [] {});
  uint64_t reserved = q.ReserveSeq();
  EXPECT_TRUE(q.TopOrdersBefore(SimTime::Seconds(5), reserved));
  early.Cancel();
  // The cancelled 1 s entry is still in the heap but must not count.
  EXPECT_FALSE(q.TopOrdersBefore(SimTime::Seconds(5), reserved));
  EXPECT_TRUE(q.TopOrdersBefore(SimTime::Seconds(11), reserved));
  q.Pop();
  EXPECT_FALSE(q.TopOrdersBefore(SimTime::Max(), reserved));
}

TEST(EventQueueTest, StaleHandleAfterSlotReuseIsInert) {
  EventQueue q;
  bool second_fired = false;
  EventHandle first = q.Push(SimTime::Seconds(1), [] {});
  q.Pop();  // Fires (and recycles) the first event's slot.
  // The recycled slot is reused by the next push; the stale handle must
  // neither report pending nor cancel the new occupant.
  EventHandle second = q.Push(SimTime::Seconds(2), [&] { second_fired = true; });
  EXPECT_FALSE(first.pending());
  first.Cancel();
  EXPECT_TRUE(second.pending());
  q.Pop().fn();
  EXPECT_TRUE(second_fired);
}

// RPC deadline timers are armed per call and almost always cancelled; the
// pending set must stay bounded by the live-event count, not by the total
// cancel traffic.
TEST(EventQueueTest, CancelHeavySoakKeepsHeapBounded) {
  EventQueue q;
  std::vector<int> order;
  constexpr int kRounds = 20000;
  SimTime far = SimTime::Seconds(1e6);
  for (int i = 0; i < kRounds; ++i) {
    // A deadline far in the future, cancelled immediately — the lazy-
    // cancellation worst case: it would never reach the top of the heap.
    EventHandle deadline = q.Push(far, [] {});
    deadline.Cancel();
    // Cancelled closures are released eagerly and compaction keeps the
    // heap itself bounded.
    EXPECT_LE(q.size_for_testing(), 256u) << "round " << i;
    EXPECT_LE(q.cancelled_count_for_testing(), 128u) << "round " << i;
  }
  // A live event scheduled after the churn still pops, in order.
  q.Push(SimTime::Seconds(2), [&] { order.push_back(2); });
  q.Push(SimTime::Seconds(1), [&] { order.push_back(1); });
  while (!q.empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Compaction must not perturb the (time, seq) pop order of surviving
// events, including FIFO ties.
TEST(EventQueueTest, CompactionPreservesPopOrder) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 300; ++i) {
    int bucket = i % 10;
    q.Push(SimTime::Seconds(bucket), [&order, i] { order.push_back(i); });
    // Two doomed per live event, so cancelled entries outnumber live ones
    // and the cancel loop crosses the compaction threshold.
    doomed.push_back(q.Push(SimTime::Seconds(1000 + bucket), [] {}));
    doomed.push_back(q.Push(SimTime::Seconds(2000 + bucket), [] {}));
  }
  for (EventHandle& h : doomed) {
    h.Cancel();  // Triggers at least one threshold compaction.
  }
  std::vector<int> popped_order;
  while (!q.empty()) {
    q.Pop().fn();
  }
  // Survivors fire grouped by time bucket, FIFO within a bucket.
  ASSERT_EQ(order.size(), 300u);
  for (size_t i = 1; i < order.size(); ++i) {
    int prev = order[i - 1];
    int cur = order[i];
    if (prev % 10 == cur % 10) {
      EXPECT_LT(prev, cur) << "FIFO violated within an equal-time bucket";
    } else {
      EXPECT_LT(prev % 10, cur % 10) << "time order violated";
    }
  }
}

// Cancelling the open tail (the last pushed event) leaves it queued; a push
// at the same time may join its chain, and must still fire after the
// earlier survivors.  Once the cancelled tail has been skipped and freed, a
// push at that time opens a fresh chain.
TEST(EventQueueTest, CancelledOpenTailThenPushAtSameTime) {
  EventQueue q;
  std::vector<int> order;
  SimTime at = SimTime::Seconds(3);
  q.Push(at, [&] { order.push_back(1); });
  q.Push(at, [&] { order.push_back(2); });
  EventHandle tail = q.Push(at, [&] { order.push_back(3); });
  tail.Cancel();
  q.Push(at, [&] { order.push_back(4); });
  EXPECT_EQ(q.heap_entries_for_testing(), 1u);
  while (!q.empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4}));

  order.clear();
  EventHandle lone = q.Push(at, [&] { order.push_back(5); });
  lone.Cancel();
  EXPECT_TRUE(q.empty());  // Skips and frees the cancelled tail.
  EXPECT_EQ(q.size_for_testing(), 0u);
  q.Push(at, [&] { order.push_back(6); });
  q.Push(at, [&] { order.push_back(7); });
  EXPECT_EQ(q.heap_entries_for_testing(), 1u);
  while (!q.empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{6, 7}));
}

// The fleet shape: thousands of events pushed back to back on one tick
// occupy a single heap entry and drain FIFO without a sift.
TEST(EventQueueTest, SameTimeBurstOccupiesOneHeapEntry) {
  EventQueue q;
  std::vector<int> order;
  q.Push(SimTime::Seconds(9), [&] { order.push_back(-1); });
  constexpr int kBurst = 2000;
  for (int i = 0; i < kBurst; ++i) {
    q.Push(SimTime::Seconds(2), [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(q.heap_entries_for_testing(), 2u);
  EXPECT_EQ(q.size_for_testing(), static_cast<size_t>(kBurst) + 1);
  while (!q.empty()) {
    q.Pop().fn();
  }
  ASSERT_EQ(order.size(), static_cast<size_t>(kBurst) + 1);
  for (int i = 0; i < kBurst; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
  EXPECT_EQ(order.back(), -1);
  EXPECT_EQ(q.heap_entries_for_testing(), 0u);
}

// Differential check of the pop order against an ordered set of
// (time, seq) keys over a seeded stream of ~100k operations: same-time
// bursts, ties spread over several chains, pushes at the timestamp being
// drained from inside a firing event, reserved sequence numbers probed
// with TopOrdersBefore, and cancels of chain heads, middles and the open
// tail heavy enough to force compaction.
TEST(EventQueueTest, MatchesOrderedSetReferenceUnderMixedTraffic) {
  using Key = std::pair<int64_t, uint64_t>;  // (time in us, seq)
  struct Live {
    SimTime at;
    EventHandle handle;
  };
  EventQueue q;
  std::set<Key> ref;
  std::unordered_map<uint64_t, Live> live;
  std::vector<uint64_t> fired;     // Seqs in the order the queue fired them.
  std::vector<uint64_t> expected;  // Seqs in the reference's order.
  std::mt19937_64 rng(20261018);
  uint64_t next_seq = 0;
  uint64_t last_pushed = 0;
  SimTime now = SimTime::Zero();
  long ops = 0;
  int inside_pushes = 0;
  int compactions = 0;
  auto chance = [&](uint64_t one_in) { return rng() % one_in == 0; };

  std::function<void(SimTime)> push;
  auto on_fire = [&](uint64_t seq) {
    fired.push_back(seq);
    if (chance(8)) {  // Schedule(0) from inside the event being drained.
      push(now);
      ++inside_pushes;
    }
  };
  push = [&](SimTime at) {
    uint64_t seq = next_seq++;
    live[seq] = Live{at, q.Push(at, [&on_fire, seq] { on_fire(seq); })};
    ref.insert(Key{at.micros(), seq});
    last_pushed = seq;
    ++ops;
  };
  // Ties come from a coarse tick grid, so one timestamp gathers several
  // chains as well as back-to-back runs.
  auto pick_time = [&] {
    switch (rng() % 4) {
      case 0:
        return now;
      case 1:
        return now + SimTime::Micros(static_cast<int64_t>(1 + rng() % 5));
      default:
        return now + SimTime::Millis(static_cast<int64_t>(rng() % 8) * 500);
    }
  };
  auto pop_one = [&]() -> bool {
    ++ops;
    if (ref.empty()) {
      EventQueue::Popped none;
      EXPECT_FALSE(q.PopIfAtOrBefore(SimTime::Max(), &none));
      return true;
    }
    Key want = *ref.begin();
    SimTime want_time = SimTime::Micros(want.first);
    EventQueue::Popped popped;
    if (want.first > 0 && chance(16)) {
      EXPECT_FALSE(q.PopIfAtOrBefore(want_time - SimTime::Micros(1), &popped));
    }
    EXPECT_EQ(q.NextTime(), want_time);
    if (!q.PopIfAtOrBefore(want_time, &popped)) {
      ADD_FAILURE() << "queue empty, reference holds seq " << want.second;
      return false;
    }
    ref.erase(ref.begin());
    live.erase(want.second);
    expected.push_back(want.second);
    now = popped.time;
    popped.fn();
    return fired.size() == expected.size() &&
           fired[expected.size() - 1] == want.second;
  };
  auto cancel = [&](uint64_t seq) {
    auto it = live.find(seq);
    if (it == live.end()) {
      return;
    }
    size_t pending_before = q.cancelled_count_for_testing();
    EventHandle handle = it->second.handle;
    EXPECT_TRUE(handle.pending());
    handle.Cancel();
    handle.Cancel();  // Idempotent.
    EXPECT_FALSE(handle.pending());
    ref.erase(Key{it->second.at.micros(), seq});
    live.erase(it);
    if (q.cancelled_count_for_testing() == 0 && pending_before > 0) {
      ++compactions;
    }
    ++ops;
  };

  while (ops < 100000) {
    uint64_t roll = rng() % 100;
    if (ref.size() > 20000) {
      roll = 0;  // Drain: keep the queue (and the test) small.
    }
    if (roll < 30) {
      // Drain everything at the top timestamp.
      SimTime top = ref.empty() ? SimTime::Zero()
                                : SimTime::Micros(ref.begin()->first);
      while (!ref.empty() && ref.begin()->first == top.micros()) {
        if (!pop_one()) {
          FAIL() << "pop order diverged after " << expected.size() << " pops";
        }
      }
    } else if (roll < 55) {
      push(pick_time());
    } else if (roll < 57) {
      // A same-time burst of 1-3000 events, sometimes interleaved with a
      // second timestamp so the two times alternate chains.
      SimTime at = pick_time();
      SimTime other = pick_time();
      bool interleave = chance(4);
      int burst = 1 + static_cast<int>(rng() % 3000);
      for (int i = 0; i < burst; ++i) {
        push(interleave && i % 2 == 1 ? other : at);
      }
    } else if (roll < 59) {
      // A cancel storm over the recent pushes (RPC deadlines all answered
      // at once): cancelled events come to outnumber live ones, which is
      // what triggers compaction.
      uint64_t from = next_seq > 4000 ? next_seq - 4000 : 0;
      for (uint64_t seq = next_seq; seq-- > from;) {
        if (!chance(4)) {
          cancel(seq);
        }
      }
    } else if (roll < 67) {
      uint64_t reserved = q.ReserveSeq();
      EXPECT_EQ(reserved, next_seq++);
      SimTime probe_times[] = {now, pick_time(), pick_time()};
      for (SimTime at : probe_times) {
        uint64_t seqs[] = {reserved, rng() % (reserved + 1)};
        for (uint64_t seq : seqs) {
          bool want = !ref.empty() && *ref.begin() < Key{at.micros(), seq};
          EXPECT_EQ(q.TopOrdersBefore(at, seq), want)
              << "at " << at.micros() << " seq " << seq;
        }
      }
      ++ops;
    } else if (roll < 75) {
      if (!ref.empty()) {
        cancel(ref.begin()->second);  // A chain head.
      }
    } else if (roll < 80) {
      cancel(last_pushed);  // The open tail.
    } else {
      // Middles: recent pushes, which sit inside the newest chains.
      for (int tries = 0; tries < 8; ++tries) {
        uint64_t back = rng() % 4000;
        if (back < next_seq && live.count(next_seq - 1 - back) != 0) {
          cancel(next_seq - 1 - back);
          break;
        }
      }
    }
    ASSERT_EQ(q.size_for_testing(),
              ref.size() + q.cancelled_count_for_testing());
    ASSERT_LE(q.heap_entries_for_testing(), q.size_for_testing());
  }
  while (!ref.empty()) {
    if (!pop_one()) {
      FAIL() << "pop order diverged after " << expected.size() << " pops";
    }
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired, expected);
  EXPECT_GT(inside_pushes, 0);
  EXPECT_GT(compactions, 0);
}

}  // namespace
}  // namespace odsim
