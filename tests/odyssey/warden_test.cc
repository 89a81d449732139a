#include "src/odyssey/warden.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/net/link.h"
#include "src/odyssey/viceroy.h"
#include "src/serve/shared_service.h"
#include "src/power/thinkpad560x.h"
#include "src/sim/simulator.h"

namespace odyssey {
namespace {

struct Rig {
  odsim::Simulator sim;
  std::unique_ptr<odpower::Laptop> laptop = odpower::MakeThinkPad560X(&sim);
  odnet::Link link{&sim, &laptop->power_manager(), odnet::LinkConfig{}};
  Viceroy viceroy{&sim, &link, &laptop->power_manager()};
};

TEST(WardenTest, FetchRunsRequestServerReply) {
  Rig rig;
  Warden* warden = rig.viceroy.RegisterWarden(std::make_unique<Warden>("map"));
  odsim::SimTime done_at;
  // 512 B request (~7 ms incl. setup), 1 s server, 250 KB reply (1.005 s).
  warden->Fetch(512, 250000, odsim::SimDuration::Seconds(1),
                [&] { done_at = rig.sim.Now(); });
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  EXPECT_GT(done_at, odsim::SimTime::Seconds(2.0));
  EXPECT_LT(done_at, odsim::SimTime::Seconds(2.1));
}

TEST(WardenTest, DataTypeExposed) {
  Warden warden("web");
  EXPECT_EQ(warden.data_type(), "web");
}

TEST(WardenTest, RegistrationWiresViceroy) {
  Rig rig;
  Warden* warden = rig.viceroy.RegisterWarden(std::make_unique<Warden>("video"));
  EXPECT_EQ(warden->viceroy(), &rig.viceroy);
}

// A warden attached to a shared service with a two-entry admission bound
// and a content cache, so every keyed-fetch outcome is reachable.
struct KeyedRig {
  odsim::Simulator sim;
  std::unique_ptr<odpower::Laptop> laptop = odpower::MakeThinkPad560X(&sim);
  odnet::Link link{&sim, &laptop->power_manager(), odnet::LinkConfig{}};
  Viceroy viceroy{&sim, &link, &laptop->power_manager()};
  odserve::SharedService service{
      &sim, "distill",
      odserve::ServiceConfig{.max_queue = 2, .cache_capacity = 4}};
  Warden* warden =
      viceroy.RegisterWarden(std::make_unique<Warden>("distill"), &service);
  std::vector<Warden::FetchOutcome> outcomes;
  std::vector<odsim::SimTime> reported_at;

  void Fetch(const std::string& key) {
    warden->FetchKeyed(key, 256, 4096, odsim::SimDuration::Millis(200),
                       [this](const Warden::FetchOutcome& outcome) {
                         outcomes.push_back(outcome);
                         reported_at.push_back(sim.Now());
                       });
  }
};

TEST(WardenKeyedFetchTest, ServedThenCacheHit) {
  KeyedRig rig;
  rig.Fetch("tile@f3");
  rig.sim.Run();
  ASSERT_EQ(rig.outcomes.size(), 1u);
  EXPECT_EQ(rig.outcomes[0].status, odnet::RpcStatus::kOk);
  EXPECT_EQ(rig.outcomes[0].serve, odserve::ServeOutcome::kServed);
  EXPECT_EQ(rig.warden->cache_hits(), 0);

  // The same content again comes from the service's cache.
  rig.Fetch("tile@f3");
  rig.sim.Run();
  ASSERT_EQ(rig.outcomes.size(), 2u);
  EXPECT_EQ(rig.outcomes[1].status, odnet::RpcStatus::kOk);
  EXPECT_EQ(rig.outcomes[1].serve, odserve::ServeOutcome::kCacheHit);
  EXPECT_EQ(rig.warden->cache_hits(), 1);
  EXPECT_EQ(rig.warden->rejected_fetches(), 0);
  EXPECT_EQ(rig.warden->failed_fetches(), 0);
}

TEST(WardenKeyedFetchTest, AdmissionRejectIsTypedAndCounted) {
  KeyedRig rig;
  // Another client fills both admission slots.
  int filler = rig.service.OpenSession("filler");
  rig.service.SubmitKeyed(filler, "block1", odsim::SimDuration::Seconds(30),
                          nullptr);
  rig.service.SubmitKeyed(filler, "block2", odsim::SimDuration::Seconds(30),
                          nullptr);
  rig.Fetch("tile@f3");
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  ASSERT_EQ(rig.outcomes.size(), 1u);
  EXPECT_EQ(rig.outcomes[0].status, odnet::RpcStatus::kRejected);
  EXPECT_EQ(rig.outcomes[0].serve, odserve::ServeOutcome::kRejected);
  EXPECT_EQ(rig.warden->rejected_fetches(), 1);
  EXPECT_EQ(rig.warden->failed_fetches(), 0);
  EXPECT_EQ(rig.warden->cache_hits(), 0);
}

TEST(WardenKeyedFetchTest, DeadlineFailsTheFetchAndIgnoresTheLateServe) {
  KeyedRig rig;
  odnet::RpcConfig config;
  config.deadline = odsim::SimDuration::Seconds(2);
  rig.viceroy.rpc().set_config(config);
  // A wedged distiller: the request is admitted but never served in time.
  rig.service.SetStalled(true);
  rig.Fetch("tile@f3");
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  ASSERT_EQ(rig.outcomes.size(), 1u);
  EXPECT_EQ(rig.outcomes[0].status, odnet::RpcStatus::kDeadlineExceeded);
  EXPECT_EQ(rig.outcomes[0].serve, odserve::ServeOutcome::kServed);
  EXPECT_EQ(rig.warden->failed_fetches(), 1);

  // A second fetch takes over the released record and queues behind the
  // abandoned request.  When the stall clears, the service finishes the
  // abandoned request first (0.2 s), then the second (0.2 s more): the
  // first completion must not be mistaken for the second fetch's.
  rig.Fetch("tile@f2");
  rig.sim.RunUntil(odsim::SimTime::Seconds(5.5));
  rig.service.SetStalled(false);
  rig.sim.Run();
  EXPECT_EQ(rig.service.completed_requests(), 2);
  ASSERT_EQ(rig.outcomes.size(), 2u);
  EXPECT_EQ(rig.outcomes[1].status, odnet::RpcStatus::kOk);
  EXPECT_EQ(rig.outcomes[1].serve, odserve::ServeOutcome::kServed);
  EXPECT_GT(rig.reported_at[1], odsim::SimTime::Seconds(5.9));
  // The abandoned fetch was reported and counted once.
  EXPECT_EQ(rig.warden->failed_fetches(), 1);
  EXPECT_EQ(rig.warden->cache_hits(), 0);
  EXPECT_EQ(rig.warden->rejected_fetches(), 0);
  EXPECT_EQ(rig.viceroy.rpc().calls_in_flight(), 0);
}

}  // namespace
}  // namespace odyssey
