#include "src/net/link.h"

#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "src/power/thinkpad560x.h"
#include "src/sim/simulator.h"

namespace odnet {
namespace {

struct Rig {
  odsim::Simulator sim;
  std::unique_ptr<odpower::Laptop> laptop = odpower::MakeThinkPad560X(&sim);
  Link link{&sim, &laptop->power_manager(), LinkConfig{}};
};

TEST(LinkTest, TransferTimeMatchesBandwidth) {
  Rig rig;
  // 250,000 bytes at 2 Mb/s = 1 s, plus 5 ms setup.
  odsim::SimDuration t = rig.link.TransferTime(250000);
  EXPECT_EQ(t, odsim::SimDuration::Seconds(1.005));
}

TEST(LinkTest, TransferCompletesAndSignals) {
  Rig rig;
  odsim::SimTime done_at;
  rig.link.Transfer(Direction::kReceive, 250000, [&] { done_at = rig.sim.Now(); });
  rig.sim.RunUntil(odsim::SimTime::Seconds(2));
  EXPECT_EQ(done_at, odsim::SimTime::Seconds(1.005));
}

TEST(LinkTest, ReceiveDrivesWavelanState) {
  Rig rig;
  rig.link.Transfer(Direction::kReceive, 250000, nullptr);
  EXPECT_EQ(rig.laptop->wavelan().wavelan_state(), odpower::WaveLanState::kReceive);
  rig.sim.RunUntil(odsim::SimTime::Seconds(2));
  EXPECT_EQ(rig.laptop->wavelan().wavelan_state(), odpower::WaveLanState::kIdle);
}

TEST(LinkTest, SendDrivesTransmitState) {
  Rig rig;
  rig.link.Transfer(Direction::kSend, 1000, nullptr);
  EXPECT_EQ(rig.laptop->wavelan().wavelan_state(), odpower::WaveLanState::kTransmit);
}

TEST(LinkTest, RestsInStandbyUnderPm) {
  Rig rig;
  rig.laptop->power_manager().SetHardwarePmEnabled(true);
  EXPECT_EQ(rig.laptop->wavelan().wavelan_state(), odpower::WaveLanState::kStandby);
  rig.link.Transfer(Direction::kReceive, 1000, nullptr);
  EXPECT_EQ(rig.laptop->wavelan().wavelan_state(), odpower::WaveLanState::kReceive);
  rig.sim.RunUntil(odsim::SimTime::Seconds(1));
  EXPECT_EQ(rig.laptop->wavelan().wavelan_state(), odpower::WaveLanState::kStandby);
}

TEST(LinkTest, TransfersAreFifo) {
  Rig rig;
  std::vector<int> order;
  rig.link.Transfer(Direction::kReceive, 250000, [&] { order.push_back(1); });
  rig.link.Transfer(Direction::kReceive, 250000, [&] { order.push_back(2); });
  rig.link.Transfer(Direction::kSend, 1000, [&] { order.push_back(3); });
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(LinkTest, QueuedTransfersCount) {
  Rig rig;
  EXPECT_EQ(rig.link.queued_transfers(), 0);
  rig.link.Transfer(Direction::kReceive, 250000, nullptr);
  rig.link.Transfer(Direction::kReceive, 250000, nullptr);
  EXPECT_EQ(rig.link.queued_transfers(), 2);
  EXPECT_TRUE(rig.link.busy());
  rig.sim.RunUntil(odsim::SimTime::Seconds(1.5));
  EXPECT_EQ(rig.link.queued_transfers(), 1);
  rig.sim.RunUntil(odsim::SimTime::Seconds(3));
  EXPECT_EQ(rig.link.queued_transfers(), 0);
  EXPECT_FALSE(rig.link.busy());
}

TEST(LinkTest, InterruptLoadAttributedToWavelanProcess) {
  Rig rig;
  odpower::EnergyAccounting& accounting = rig.laptop->accounting();
  // 256 KiB = 16 interrupt batches.
  rig.link.Transfer(Direction::kReceive, 256 * 1024, nullptr);
  rig.sim.RunUntil(odsim::SimTime::Seconds(3));
  odsim::ProcessId intr = rig.sim.processes().RegisterProcess("Interrupts-WaveLAN");
  odpower::ContextUsage usage = accounting.ProcessUsage(intr, rig.sim.Now());
  // 16 batches * 3 ms.
  EXPECT_NEAR(usage.cpu_seconds, 0.048, 1e-6);
  EXPECT_GT(usage.joules, 0.0);
}

TEST(LinkTest, SmallTransferHasNoInterruptBatches) {
  Rig rig;
  rig.link.Transfer(Direction::kSend, 512, nullptr);
  rig.sim.RunUntil(odsim::SimTime::Seconds(1));
  odsim::ProcessId intr = rig.sim.processes().RegisterProcess("Interrupts-WaveLAN");
  odpower::ContextUsage usage =
      rig.laptop->accounting().ProcessUsage(intr, rig.sim.Now());
  EXPECT_DOUBLE_EQ(usage.cpu_seconds, 0.0);
}

// A completion may queue the next transfer: it runs while the link still
// counts itself busy, so the new transfer joins the FIFO behind everything
// already waiting instead of starting early.
TEST(LinkTest, CompletionQueuingATransferKeepsFifoOrder) {
  Rig rig;
  std::vector<int> order;
  rig.link.Transfer(Direction::kSend, 1000, [&] {
    order.push_back(1);
    EXPECT_TRUE(rig.link.busy());
    EXPECT_EQ(rig.link.queued_transfers(), 2);  // #1 finishing, #2 waiting.
    rig.link.Transfer(Direction::kReceive, 1000, [&] { order.push_back(3); });
    EXPECT_EQ(rig.link.queued_transfers(), 3);
  });
  rig.link.Transfer(Direction::kReceive, 1000, [&] { order.push_back(2); });
  rig.sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(rig.link.busy());
  EXPECT_EQ(rig.link.queued_transfers(), 0);
  EXPECT_EQ(rig.link.total_bytes(), 3000u);
  // Three back-to-back transfers, none overlapping.
  EXPECT_EQ(rig.sim.Now(), odsim::SimTime() + rig.link.TransferTime(1000) * 3.0);
}

// A backlog that never drains: every completion queues another transfer
// while dozens still wait.  Order stays FIFO across the whole run.
TEST(LinkTest, PersistentBacklogStaysFifo) {
  Rig rig;
  std::vector<int> order;
  int queued = 0;
  std::function<void()> enqueue = [&] {
    int n = queued++;
    rig.link.Transfer(Direction::kReceive, 100, [&, n] {
      order.push_back(n);
      if (queued < 300) {
        enqueue();
      }
    });
  };
  for (int i = 0; i < 50; ++i) {
    enqueue();
  }
  EXPECT_EQ(rig.link.queued_transfers(), 50);
  rig.sim.Run();
  ASSERT_EQ(order.size(), 300u);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(order[i], i);
  }
  EXPECT_EQ(rig.link.queued_transfers(), 0);
  EXPECT_FALSE(rig.link.busy());
}

// An outage raised from inside a completion parks the rest of the queue;
// clearing it restarts the pump exactly once.
TEST(LinkTest, CompletionRaisingOutageParksTheQueue) {
  Rig rig;
  std::vector<int> order;
  rig.link.Transfer(Direction::kSend, 1000, [&] {
    order.push_back(1);
    rig.link.SetOutage(true);
  });
  rig.link.Transfer(Direction::kSend, 1000, [&] { order.push_back(2); });
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_FALSE(rig.link.busy());
  EXPECT_EQ(rig.link.queued_transfers(), 1);

  rig.link.SetOutage(false);
  EXPECT_TRUE(rig.link.busy());
  rig.sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(rig.sim.Now(),
            odsim::SimTime::Seconds(5) + rig.link.TransferTime(1000));
  EXPECT_EQ(rig.link.queued_transfers(), 0);
}

// Toggling the outage on and off inside a completion must not start the
// next transfer twice: the link is still busy when the outage clears, so
// only the completion's own pump moves the queue.
TEST(LinkTest, CompletionTogglingOutageStartsNextOnce) {
  Rig rig;
  std::vector<odsim::SimTime> done_at;
  rig.link.Transfer(Direction::kSend, 1000, [&] {
    done_at.push_back(rig.sim.Now());
    rig.link.SetOutage(true);
    rig.link.SetOutage(false);
    EXPECT_TRUE(rig.link.busy());
    EXPECT_EQ(rig.link.queued_transfers(), 3);
  });
  rig.link.Transfer(Direction::kSend, 1000, [&] { done_at.push_back(rig.sim.Now()); });
  rig.link.Transfer(Direction::kSend, 1000, [&] { done_at.push_back(rig.sim.Now()); });
  rig.sim.Run();
  const odsim::SimDuration t = rig.link.TransferTime(1000);
  ASSERT_EQ(done_at.size(), 3u);
  EXPECT_EQ(done_at[0], odsim::SimTime() + t);
  EXPECT_EQ(done_at[1], odsim::SimTime() + t * 2.0);
  EXPECT_EQ(done_at[2], odsim::SimTime() + t * 3.0);
  EXPECT_EQ(rig.link.total_bytes(), 3000u);
  EXPECT_FALSE(rig.laptop->power_manager().network_in_use());
}

}  // namespace
}  // namespace odnet
