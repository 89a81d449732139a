// End-to-end graceful degradation: the full adaptive workload under fault
// plans, asserting the liveness and clamp/recovery contract the odfault
// subsystem exists to provide.

#include "src/fault/fault_scenario.h"

#include <gtest/gtest.h>

#include "src/apps/goal_scenario.h"

namespace odfault {
namespace {

FaultScenarioOptions WithPlan(const std::string& spec, uint64_t seed = 1) {
  FaultScenarioOptions options;
  options.seed = seed;
  options.duration = odsim::SimDuration::Seconds(120);
  std::string error;
  EXPECT_TRUE(FaultPlan::Parse(spec, &options.plan, &error)) << error;
  return options;
}

TEST(FaultScenarioTest, CleanRunCompletesWithoutClampsOrFailures) {
  FaultScenarioResult result = RunFaultScenario(WithPlan(""));
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.pages_browsed, 0);
  EXPECT_GT(result.maps_viewed, 0);
  EXPECT_GT(result.utterances_recognized, 0);
  EXPECT_GT(result.chunks_played, 0);
  EXPECT_EQ(result.outage_clamps, 0);
  EXPECT_EQ(result.failed_fetches, 0);
  EXPECT_EQ(result.pages_degraded, 0);
  EXPECT_EQ(result.maps_degraded, 0);
  EXPECT_DOUBLE_EQ(result.clamped_seconds, 0.0);
}

TEST(FaultScenarioTest, IdenticalSeedAndPlanReproduceExactly) {
  const FaultScenarioOptions options =
      WithPlan("outage@30+20;loss@60+20=0.3", 5);
  FaultScenarioResult a = RunFaultScenario(options);
  FaultScenarioResult b = RunFaultScenario(options);
  EXPECT_DOUBLE_EQ(a.joules, b.joules);
  EXPECT_EQ(a.pages_browsed, b.pages_browsed);
  EXPECT_EQ(a.maps_viewed, b.maps_viewed);
  EXPECT_EQ(a.chunks_played, b.chunks_played);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.request_losses, b.request_losses);
  EXPECT_EQ(a.reply_losses, b.reply_losses);
  EXPECT_EQ(a.failed_fetches, b.failed_fetches);
  EXPECT_DOUBLE_EQ(a.clamped_seconds, b.clamped_seconds);
}

TEST(FaultScenarioTest, DifferentSeedsDiverge) {
  FaultScenarioResult a = RunFaultScenario(WithPlan("loss@20+40=0.3", 1));
  FaultScenarioResult b = RunFaultScenario(WithPlan("loss@20+40=0.3", 2));
  EXPECT_NE(a.joules, b.joules);
}

TEST(FaultScenarioTest, OutageClampsToLowestFidelityAndRecovers) {
  FaultScenarioResult result = RunFaultScenario(WithPlan("outage@30+20"));
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.outage_clamps, 1);
  EXPECT_GT(result.clamped_seconds, 0.0);
  // During the outage every adaptive app sat at its lowest fidelity...
  EXPECT_EQ(result.min_video_fidelity, 0);
  EXPECT_EQ(result.min_web_fidelity, 0);
  EXPECT_EQ(result.min_map_fidelity, 0);
  // ...and after it ended the clamp lifted and fidelity came back.
  EXPECT_FALSE(result.clamped_at_end);
  EXPECT_GT(result.final_video_fidelity, 0);
  EXPECT_GT(result.final_web_fidelity, 0);
  EXPECT_GT(result.final_map_fidelity, 0);
}

TEST(FaultScenarioTest, PermanentOutageNeverWedgesTheWorkload) {
  // The outage outlives the scenario: no recovery is possible, yet every
  // loop must keep making (degraded) progress and no retry can run
  // unbounded — the core liveness property.
  FaultScenarioResult result = RunFaultScenario(WithPlan("outage@20+500"));
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.pages_browsed, 0);
  EXPECT_GT(result.maps_viewed, 0);
  EXPECT_GT(result.utterances_recognized, 0);
  EXPECT_TRUE(result.clamped_at_end);
  EXPECT_GT(result.deadlines_exceeded + result.retries_exhausted, 0);
  EXPECT_GT(result.failed_fetches, 0);
  // Work shed during the outage is degraded, not queued: pages fall back
  // to text-only layout and maps redraw from cache.
  EXPECT_GT(result.pages_degraded + result.maps_degraded, 0);
}

TEST(FaultScenarioTest, DegradedUnitsStillCountAsProgress) {
  FaultScenarioResult clean = RunFaultScenario(WithPlan(""));
  FaultScenarioResult crashed =
      RunFaultScenario(WithPlan("bandwidth@30+40=0.1"));
  EXPECT_TRUE(crashed.completed);
  EXPECT_GT(crashed.pages_degraded + crashed.maps_degraded, 0);
  // Degradation costs some throughput but not collapse.
  EXPECT_GT(crashed.pages_browsed, clean.pages_browsed / 2);
  // And a degraded run must not burn extra energy in retry storms.
  EXPECT_LT(crashed.joules, clean.joules * 1.25);
}

TEST(FaultScenarioTest, ServerStallSurfacesTypedFailures) {
  FaultScenarioResult result = RunFaultScenario(WithPlan("stall@30+25"));
  EXPECT_TRUE(result.completed);
  // A stalled server holds replies past the deadline; the wardens see
  // typed failures instead of hanging.
  EXPECT_GT(result.deadlines_exceeded, 0);
  EXPECT_GT(result.failed_fetches, 0);
}

TEST(FaultScenarioTest, DiskLatencySpikeSlowsRecognitionOnly) {
  FaultScenarioResult clean = RunFaultScenario(WithPlan(""));
  FaultScenarioResult spiked = RunFaultScenario(WithPlan("disk@10+100=16"));
  EXPECT_TRUE(spiked.completed);
  // Paged vocabulary recognition slows down; the network loops don't care.
  EXPECT_LT(spiked.utterances_recognized, clean.utterances_recognized);
  EXPECT_EQ(spiked.failed_fetches, 0);
  EXPECT_EQ(spiked.outage_clamps, 0);
}

TEST(FaultScenarioTest, OutageChangesPinnedLifetimeExactly) {
  // The faulted pinned-lifetime run wires the same degradation RPC config
  // and fault targets as the scenarios; its value is pinned exactly so a
  // change to that wiring shows up here.
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse("outage@10+200", &plan, &error)) << error;
  double clean = odapps::MeasurePinnedLifetime(13500.0, /*lowest=*/false, 83);
  double faulted =
      odapps::MeasurePinnedLifetime(13500.0, /*lowest=*/false, 83, plan);
  EXPECT_EQ(faulted, 1143.0);
  EXPECT_NE(faulted, clean);
}

}  // namespace
}  // namespace odfault
