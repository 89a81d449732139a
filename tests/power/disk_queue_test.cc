// Concurrent disk requests queue FIFO instead of faulting.

#include <vector>

#include <gtest/gtest.h>

#include "src/power/thinkpad560x.h"
#include "src/sim/simulator.h"

namespace odpower {
namespace {

struct Rig {
  odsim::Simulator sim;
  std::unique_ptr<Laptop> laptop = MakeThinkPad560X(&sim);
  PowerManager& pm() { return laptop->power_manager(); }
};

TEST(DiskQueueTest, ConcurrentAccessesServedInOrder) {
  Rig rig;
  std::vector<int> order;
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(1), [&] { order.push_back(1); });
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(1), [&] { order.push_back(2); });
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(1), [&] { order.push_back(3); });
  EXPECT_EQ(rig.pm().queued_disk_accesses(), 3);
  rig.sim.RunUntil(odsim::SimTime::Seconds(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(rig.pm().queued_disk_accesses(), 0);
}

TEST(DiskQueueTest, QueuedAccessesRunBackToBack) {
  Rig rig;
  odsim::SimTime first_done, second_done;
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(1),
                      [&] { first_done = rig.sim.Now(); });
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(2),
                      [&] { second_done = rig.sim.Now(); });
  rig.sim.RunUntil(odsim::SimTime::Seconds(10));
  EXPECT_EQ(first_done, odsim::SimTime::Seconds(1));
  EXPECT_EQ(second_done, odsim::SimTime::Seconds(3));
}

TEST(DiskQueueTest, StandbyTimerArmsOnlyAfterQueueDrains) {
  Rig rig;
  rig.pm().SetHardwarePmEnabled(true);
  rig.sim.RunUntil(odsim::SimTime::Seconds(20));
  ASSERT_EQ(rig.laptop->disk().disk_state(), DiskState::kStandby);

  // Two queued accesses: spin-up (1.5 s) + 1 s + 1 s, ending at 23.5 s.
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(1), nullptr);
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(1), nullptr);
  rig.sim.RunUntil(odsim::SimTime::Seconds(30));
  EXPECT_EQ(rig.laptop->disk().disk_state(), DiskState::kIdle);
  // Standby 10 s after the last access completes.
  rig.sim.RunUntil(odsim::SimTime::Seconds(34));
  EXPECT_EQ(rig.laptop->disk().disk_state(), DiskState::kStandby);
}

TEST(DiskQueueTest, RequestIssuedByACompletionIsServedNext) {
  // The completion callback runs after the disk is released and before
  // the queue is pumped, so a request it issues starts at once and the
  // queued request follows it.
  Rig rig;
  std::vector<int> order;
  std::vector<odsim::SimTime> done_at;
  int queued_inside_callback = -1;
  auto record = [&](int id) {
    order.push_back(id);
    done_at.push_back(rig.sim.Now());
  };
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(1), [&] {
    record(1);
    rig.pm().AccessDisk(odsim::SimDuration::Seconds(1), [&] { record(3); });
    queued_inside_callback = rig.pm().queued_disk_accesses();
  });
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(1), [&] { record(2); });
  rig.sim.RunUntil(odsim::SimTime::Seconds(10));
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(done_at, (std::vector<odsim::SimTime>{odsim::SimTime::Seconds(1),
                                                  odsim::SimTime::Seconds(2),
                                                  odsim::SimTime::Seconds(3)}));
  EXPECT_EQ(queued_inside_callback, 2);
  EXPECT_EQ(rig.pm().queued_disk_accesses(), 0);
}

TEST(DiskQueueTest, CompletionRequestDoesNotReorderTheQueue) {
  // A runs with B and C queued; A's completion issues D.  D takes the free
  // disk at once, and B and C keep their order behind it.
  Rig rig;
  std::vector<char> order;
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(1), [&] {
    order.push_back('A');
    rig.pm().AccessDisk(odsim::SimDuration::Seconds(1),
                        [&] { order.push_back('D'); });
  });
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(1), [&] { order.push_back('B'); });
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(1), [&] { order.push_back('C'); });
  rig.sim.RunUntil(odsim::SimTime::Seconds(10));
  EXPECT_EQ(order, (std::vector<char>{'A', 'D', 'B', 'C'}));
  EXPECT_EQ(rig.pm().queued_disk_accesses(), 0);
}

TEST(DiskQueueTest, BacklogThatNeverDrainsStaysInOrder) {
  // Requests arrive every 0.5 s and each takes 1 s, so the queue grows
  // for the whole run and never empties; it must stay FIFO throughout.
  Rig rig;
  std::vector<int> order;
  for (int i = 0; i < 200; ++i) {
    rig.sim.Schedule(odsim::SimDuration::Seconds(0.5 * i), [&rig, &order, i] {
      rig.pm().AccessDisk(odsim::SimDuration::Seconds(1),
                          [&order, i] { order.push_back(i); });
    });
  }
  rig.sim.RunUntil(odsim::SimTime::Seconds(80.25));
  ASSERT_EQ(order.size(), 80u);
  for (int i = 0; i < 80; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
  // 161 arrivals (0 s .. 80 s), 80 completions.
  EXPECT_EQ(rig.pm().queued_disk_accesses(), 161 - 80);
  rig.sim.RunUntil(odsim::SimTime::Seconds(300));
  EXPECT_EQ(order.size(), 200u);
  EXPECT_EQ(rig.pm().queued_disk_accesses(), 0);
}

}  // namespace
}  // namespace odpower
