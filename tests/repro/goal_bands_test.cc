// Reproduction of Figures 19-22 / Section 5 (goal-directed adaptation).
// The paper's headline: Odyssey meets user-specified battery-duration goals
// spanning a 30% range, with small residual energy, degrading low-priority
// applications first; smoothing half-life trades stability for agility.

#include <string>

#include <gtest/gtest.h>

#include "src/apps/goal_scenario.h"

namespace odapps {
namespace {

class GoalSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(GoalSweepTest, GoalIsMetWithSmallResidual) {
  GoalScenarioOptions options;
  options.goal = odsim::SimDuration::Seconds(GetParam());
  options.seed = 81;
  GoalScenarioResult result = RunGoalScenario(options);
  EXPECT_TRUE(result.goal_met);
  EXPECT_NEAR(result.elapsed_seconds, GetParam(), 1.0);
  // Residue under 8% of the 13,500 J supply (paper: under ~2% of 12,000 J
  // in most runs; our director is slightly more conservative).
  EXPECT_LT(result.residual_joules, 0.08 * options.initial_joules);
  EXPECT_GT(result.total_adaptations, 0);
}

INSTANTIATE_TEST_SUITE_P(PaperGoals, GoalSweepTest,
                         ::testing::Values(1200.0, 1320.0, 1440.0, 1560.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "Goal" +
                                  std::to_string(static_cast<int>(info.param)) +
                                  "s";
                         });

TEST(GoalBandsTest, PinnedLifetimesBracketTheGoals) {
  // Paper framing: 19:27 at highest fidelity, 27:06 at lowest (12,000 J).
  // Ours: the four goals must lie between the pinned lifetimes so that the
  // tightest goal requires adaptation and the loosest remains feasible.
  double full = MeasurePinnedLifetime(13500.0, false, 83);
  double low = MeasurePinnedLifetime(13500.0, true, 83);
  EXPECT_LT(full, 1200.0);
  EXPECT_GT(low, 1560.0);
  // Fidelity range extends lifetime by more than 30%.
  EXPECT_GT(low / full, 1.30);
}

TEST(GoalBandsTest, TighterGoalsRunAtLowerFidelity) {
  GoalScenarioOptions tight, loose;
  tight.goal = odsim::SimDuration::Seconds(1560);
  loose.goal = odsim::SimDuration::Seconds(1200);
  tight.seed = loose.seed = 85;
  GoalScenarioResult tight_result = RunGoalScenario(tight);
  GoalScenarioResult loose_result = RunGoalScenario(loose);
  // The 26-minute goal forces everything down by the end; the 20-minute
  // goal leaves the high-priority applications higher.
  int tight_sum = 0, loose_sum = 0;
  for (const auto& [name, level] : tight_result.final_fidelity) {
    tight_sum += level;
  }
  for (const auto& [name, level] : loose_result.final_fidelity) {
    loose_sum += level;
  }
  EXPECT_LT(tight_sum, loose_sum);
}

TEST(GoalBandsTest, SpeechDegradedBeforeWeb) {
  // Priorities: Speech < Video < Map < Web (Section 5.2).  In every run the
  // lowest-priority application is degraded at least as deeply as the
  // highest-priority one.
  GoalScenarioOptions options;
  options.goal = odsim::SimDuration::Seconds(1320);
  GoalScenarioResult result = RunGoalScenario(options);
  EXPECT_TRUE(result.goal_met);
  // Normalize by ladder size: speech has 2 levels, web 5.
  double speech_norm = result.final_fidelity.at("Speech") / 1.0;
  double web_norm = result.final_fidelity.at("Web") / 4.0;
  EXPECT_LE(speech_norm, web_norm);
}

TEST(GoalBandsTest, HalfLifeSensitivity) {
  // Figure 21: a 1% half-life is too unstable (most adaptations, largest
  // residue); longer half-lives are more stable.
  auto run = [](double fraction) {
    GoalScenarioOptions options;
    options.goal = odsim::SimDuration::Seconds(1320);
    options.initial_joules = 13000.0;
    options.director.half_life_fraction = fraction;
    options.seed = 87;
    return RunGoalScenario(options);
  };
  GoalScenarioResult h01 = run(0.01);
  GoalScenarioResult h10 = run(0.10);
  GoalScenarioResult h15 = run(0.15);
  // The 1% half-life chases noise, producing the most adaptations; the
  // ordering between 10% and 15% is within run-to-run variation.
  EXPECT_GE(h01.total_adaptations, h10.total_adaptations);
  EXPECT_GE(h01.total_adaptations, h15.total_adaptations);
  EXPECT_TRUE(h10.goal_met);
}

TEST(GoalBandsTest, BurstyLongRunMeetsExtendedGoal) {
  // Figure 22: 90,000 J, 2:45 goal extended by 30 minutes after the first
  // hour, bursty workload.  (A single seed here; the five-trial sweep is in
  // bench/fig22_longrun.)
  GoalScenarioOptions options;
  options.bursty = true;
  options.initial_joules = 90000.0;
  options.goal = odsim::SimDuration::Seconds(9900);
  options.extend_at = odsim::SimDuration::Seconds(3600);
  options.extend_by = odsim::SimDuration::Seconds(1800);
  options.seed = 89;
  GoalScenarioResult result = RunGoalScenario(options);
  EXPECT_TRUE(result.goal_met);
  EXPECT_NEAR(result.elapsed_seconds, 11700.0, 2.0);
  // Residue under 5% of the supply.
  EXPECT_LT(result.residual_joules, 0.05 * options.initial_joules);
}

TEST(GoalBandsTest, SystemStaysResponsiveThroughoutRun) {
  // After the initial transient (where the director pulls predicted demand
  // under the supply), the system keeps adapting as energy drains rather
  // than freezing at one configuration.
  GoalScenarioOptions options;
  options.goal = odsim::SimDuration::Seconds(1320);
  options.seed = 91;
  GoalScenarioResult result = RunGoalScenario(options);
  int first_half = 0, second_half = 0;
  for (const auto& [app, changes] : result.fidelity_traces) {
    for (const auto& change : changes) {
      if (change.time.seconds() < 660.0) {
        ++first_half;
      } else {
        ++second_half;
      }
    }
  }
  EXPECT_GT(first_half, 0);
  EXPECT_GT(second_half, 0);
}

}  // namespace
}  // namespace odapps
