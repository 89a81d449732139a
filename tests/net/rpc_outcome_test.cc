// The outcome-aware RPC path and the lifetimes of a call's record: an
// admission reject settles at once, and continuations that fire after a
// call settled — a server completion racing the deadline, a reply parked
// in an outage — are no-ops, even once a new call has reused the record's
// arena slot.

#include <functional>

#include <gtest/gtest.h>

#include "src/net/rpc.h"
#include "src/power/thinkpad560x.h"
#include "src/sim/simulator.h"

namespace odnet {
namespace {

struct Rig {
  odsim::Simulator sim;
  std::unique_ptr<odpower::Laptop> laptop = odpower::MakeThinkPad560X(&sim);
  Link link{&sim, &laptop->power_manager(), LinkConfig{}};
  RpcClient rpc{&sim, &link, &laptop->power_manager(), 42};

  explicit Rig(odsim::SimDuration deadline = odsim::SimDuration::Zero()) {
    laptop->power_manager().SetHardwarePmEnabled(true);
    RpcConfig config;
    config.deadline = deadline;
    rpc.set_config(config);
  }
};

// Server side that holds on to the call's completion instead of answering.
struct HeldCompute {
  std::function<void(bool)> done;
  int invocations = 0;

  RpcClient::OutcomeComputeFn Fn() {
    return [this](std::function<void(bool)> d) {
      ++invocations;
      done = std::move(d);
    };
  }
};

struct Completions {
  odsim::Simulator* sim;
  int count = 0;
  RpcStatus last = RpcStatus::kOk;
  odsim::SimTime at;

  RpcClient::StatusFn Fn() {
    return [this](RpcStatus status) {
      ++count;
      last = status;
      at = sim->Now();
    };
  }
};

TEST(RpcOutcomeTest, AdmissionRejectSettlesWithoutRetransmission) {
  Rig rig(odsim::SimDuration::Seconds(10));
  int computes = 0;
  Completions completions{&rig.sim};
  rig.rpc.CallWithOutcome(
      1000, 50000,
      [&](std::function<void(bool)> done) {
        ++computes;
        done(false);
      },
      completions.Fn());
  rig.sim.Run();

  EXPECT_EQ(completions.count, 1);
  EXPECT_EQ(completions.last, RpcStatus::kRejected);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(rig.rpc.rejected(), 1);
  EXPECT_EQ(rig.rpc.retransmissions(), 0);
  EXPECT_EQ(rig.rpc.deadlines_exceeded(), 0);
  // Only the request and the short refusal crossed the link, not the reply.
  EXPECT_EQ(rig.link.total_bytes(), 1000 + RpcClient::kRejectReplyBytes);
  // Settled at the refusal, long before the deadline.
  EXPECT_LT(completions.at, odsim::SimTime::Seconds(1));
  EXPECT_EQ(rig.rpc.calls_in_flight(), 0);
  EXPECT_FALSE(rig.laptop->power_manager().network_in_use());
  EXPECT_EQ(rig.laptop->wavelan().wavelan_state(), odpower::WaveLanState::kStandby);
}

TEST(RpcOutcomeTest, ServerCompletionAfterDeadlineIsANoOp) {
  Rig rig(odsim::SimDuration::Seconds(2));
  HeldCompute first;
  Completions first_done{&rig.sim};
  rig.rpc.CallWithOutcome(1000, 1000, first.Fn(), first_done.Fn());
  rig.sim.RunUntil(odsim::SimTime::Seconds(3));
  ASSERT_EQ(first_done.count, 1);
  EXPECT_EQ(first_done.last, RpcStatus::kDeadlineExceeded);
  ASSERT_TRUE(first.done);

  // A second call (deadline at 5 s) takes the record's slot over before
  // the stale server completion of the first arrives.
  HeldCompute second;
  Completions second_done{&rig.sim};
  rig.rpc.CallWithOutcome(1000, 1000, second.Fn(), second_done.Fn());
  rig.sim.RunUntil(odsim::SimTime::Seconds(3.5));
  ASSERT_EQ(second.invocations, 1);
  EXPECT_EQ(rig.rpc.calls_in_flight(), 1);

  const size_t bytes = rig.link.total_bytes();
  first.done(true);
  first.done(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(4));
  // Neither call moved: no reply or refusal was sent, nothing completed,
  // and no counter changed.
  EXPECT_EQ(first_done.count, 1);
  EXPECT_EQ(second_done.count, 0);
  EXPECT_EQ(rig.link.total_bytes(), bytes);
  EXPECT_EQ(rig.rpc.rejected(), 0);
  EXPECT_EQ(rig.rpc.reply_losses(), 0);
  EXPECT_EQ(rig.rpc.retransmissions(), 0);
  EXPECT_EQ(rig.rpc.deadlines_exceeded(), 1);
  EXPECT_EQ(rig.rpc.calls_in_flight(), 1);

  // The live call's own completion still works.
  second.done(true);
  rig.sim.RunUntil(odsim::SimTime::Seconds(4.5));
  EXPECT_EQ(second_done.count, 1);
  EXPECT_EQ(second_done.last, RpcStatus::kOk);
  EXPECT_EQ(rig.rpc.calls_in_flight(), 0);
  EXPECT_FALSE(rig.laptop->power_manager().network_in_use());
}

TEST(RpcOutcomeTest, ReplyDrainingAfterDeadlineIsANoOp) {
  Rig rig(odsim::SimDuration::Seconds(2));
  Completions first_done{&rig.sim};
  // The server answers at once, but the channel dies first: the reply
  // parks in the link's queue.
  rig.rpc.CallWithOutcome(
      1000, 20000,
      [&](std::function<void(bool)> done) {
        rig.link.SetOutage(true);
        done(true);
      },
      first_done.Fn());
  rig.sim.RunUntil(odsim::SimTime::Seconds(3));
  ASSERT_EQ(first_done.count, 1);
  EXPECT_EQ(first_done.last, RpcStatus::kDeadlineExceeded);
  EXPECT_EQ(rig.link.queued_transfers(), 1);

  // A new call (deadline at 5 s) reuses the slot; its request queues
  // behind the parked reply.
  HeldCompute second;
  Completions second_done{&rig.sim};
  rig.rpc.CallWithOutcome(1000, 1000, second.Fn(), second_done.Fn());

  rig.link.SetOutage(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(4));
  // The stale reply drained (its bytes moved) without touching either call.
  EXPECT_EQ(rig.link.total_bytes(), 1000u + 20000u + 1000u);
  EXPECT_EQ(first_done.count, 1);
  EXPECT_EQ(second_done.count, 0);
  EXPECT_EQ(second.invocations, 1);
  EXPECT_EQ(rig.rpc.reply_losses(), 0);
  EXPECT_EQ(rig.rpc.deadlines_exceeded(), 1);

  second.done(true);
  rig.sim.RunUntil(odsim::SimTime::Seconds(4.5));
  EXPECT_EQ(second_done.count, 1);
  EXPECT_EQ(second_done.last, RpcStatus::kOk);
  EXPECT_EQ(rig.rpc.calls_in_flight(), 0);
  EXPECT_FALSE(rig.laptop->power_manager().network_in_use());
}

}  // namespace
}  // namespace odnet
