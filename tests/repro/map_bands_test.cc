// Reproduction bands for Figures 10 and 11 (map viewer).  Paper claims:
//   - hardware-only PM saves 9-19% of baseline;
//   - the minor-road filter saves 6-51% below hardware-only PM;
//   - the secondary-road filter saves 23-55%;
//   - cropping saves 14-49%;
//   - cropping + secondary filter saves 36-66% (46-70% below baseline);
//   - energy is linear in think time, with slope = background power.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/experiments.h"
#include "src/util/stats.h"

namespace odapps {
namespace {

class MapBandsTest : public ::testing::TestWithParam<int> {};

TEST_P(MapBandsTest, FigureTenRatios) {
  const MapObject& map = StandardMaps()[static_cast<size_t>(GetParam())];
  uint64_t seed = 300 + static_cast<uint64_t>(GetParam());
  constexpr double kThink = 5.0;

  double base =
      RunMapExperiment(map, MapFidelity::kFull, kThink, false, seed).joules;
  double pm =
      RunMapExperiment(map, MapFidelity::kFull, kThink, true, seed).joules;
  double minor =
      RunMapExperiment(map, MapFidelity::kMinorFilter, kThink, true, seed)
          .joules;
  double secondary =
      RunMapExperiment(map, MapFidelity::kSecondaryFilter, kThink, true, seed)
          .joules;
  double cropped =
      RunMapExperiment(map, MapFidelity::kCropped, kThink, true, seed).joules;
  double combined =
      RunMapExperiment(map, MapFidelity::kCroppedSecondary, kThink, true, seed)
          .joules;

  EXPECT_GT(pm / base, 0.80) << map.name;
  EXPECT_LT(pm / base, 0.92) << map.name;

  EXPECT_GT(minor / pm, 0.45) << map.name;
  EXPECT_LT(minor / pm, 0.97) << map.name;

  EXPECT_GT(secondary / pm, 0.42) << map.name;
  EXPECT_LT(secondary / pm, 0.80) << map.name;

  EXPECT_GT(cropped / pm, 0.48) << map.name;
  EXPECT_LT(cropped / pm, 0.89) << map.name;

  EXPECT_GT(combined / pm, 0.30) << map.name;
  EXPECT_LT(combined / pm, 0.69) << map.name;

  // Combined vs baseline: 46-70% reduction (we allow 42-72%).
  EXPECT_GT(combined / base, 0.28) << map.name;
  EXPECT_LT(combined / base, 0.58) << map.name;

  // More aggressive filtering always beats less aggressive filtering.
  EXPECT_LT(secondary, minor) << map.name;
  EXPECT_LT(combined, cropped) << map.name;
  EXPECT_LT(combined, secondary) << map.name;
}

INSTANTIATE_TEST_SUITE_P(AllMaps, MapBandsTest, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return StandardMaps()[static_cast<size_t>(info.param)]
                                      .name == "San Jose" && info.param == 0
                                      ? std::string("SanJose")
                                      : "Map" + std::to_string(info.param);
                         });

TEST(MapThinkTimeTest, LinearModelFitsAllThreePolicies) {
  // Figure 11: E_t = E_0 + t * P_B fits baseline, hardware-only, and lowest
  // fidelity; the first two diverge, the last two are parallel.
  const MapObject& map = StandardMaps()[0];
  std::vector<double> thinks = {0.0, 5.0, 10.0, 20.0};

  auto sweep = [&](MapFidelity fidelity, bool pm) {
    std::vector<double> joules;
    for (double think : thinks) {
      joules.push_back(RunMapExperiment(map, fidelity, think, pm, 31).joules);
    }
    return odutil::FitLine(thinks, joules);
  };

  odutil::LinearFit baseline = sweep(MapFidelity::kFull, false);
  odutil::LinearFit hw = sweep(MapFidelity::kFull, true);
  odutil::LinearFit lowest = sweep(MapFidelity::kCroppedSecondary, true);

  EXPECT_GT(baseline.r_squared, 0.999);
  EXPECT_GT(hw.r_squared, 0.999);
  EXPECT_GT(lowest.r_squared, 0.999);

  // Baseline slope exceeds the managed slope (network and disk idle during
  // think time), so the lines diverge.
  EXPECT_GT(baseline.slope, hw.slope + 1.0);
  // Hardware-only and lowest-fidelity slopes are equal (parallel lines):
  // fidelity reduction gives a constant offset, independent of think time.
  EXPECT_NEAR(hw.slope, lowest.slope, 0.15);
  EXPECT_GT(hw.intercept, lowest.intercept + 10.0);
}

TEST(MapThinkTimeTest, ManagedSlopeIsRestingBrightPower) {
  // With PM on, think-time draw is display bright + everything else resting.
  const MapObject& map = StandardMaps()[0];
  double e5 = RunMapExperiment(map, MapFidelity::kFull, 5.0, true, 33).joules;
  double e20 = RunMapExperiment(map, MapFidelity::kFull, 20.0, true, 33).joules;
  double slope = (e20 - e5) / 15.0;
  EXPECT_GT(slope, 6.0);
  EXPECT_LT(slope, 7.2);
}

TEST(MapBandsTest2, CroppingLessEffectiveThanFilteringForSanJose) {
  // "Cropping is less effective than filtering for these samples."
  const MapObject& map = StandardMaps()[0];
  double secondary =
      RunMapExperiment(map, MapFidelity::kSecondaryFilter, 5.0, true, 35)
          .joules;
  double cropped =
      RunMapExperiment(map, MapFidelity::kCropped, 5.0, true, 35).joules;
  EXPECT_GT(cropped, secondary);
}

}  // namespace
}  // namespace odapps
