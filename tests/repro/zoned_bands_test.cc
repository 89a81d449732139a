// Reproduction of Figure 18 / Section 4 (zoned backlighting projection).
// Paper claims:
//   - video: 17-18% saving at full fidelity (both layouts: one zone of
//     four lit, or two of eight — identical lit area), 24% (4-zone) and
//     28-29% (8-zone) at lowest fidelity;
//   - map: no benefit at full fidelity on the 4-zone display (all zones
//     lit), 7-8% on the 8-zone display; at lowest fidelity 24%/28-29%-class
//     savings appear as the cropped window spans fewer zones;
//   - lowering fidelity enhances the energy savings due to zoning.

#include <gtest/gtest.h>

#include "src/apps/experiments.h"

namespace odapps {
namespace {

TEST(ZonedVideoTest, FullFidelitySavingsSameForBothLayouts) {
  const VideoClip& clip = StandardVideoClips()[0];
  double none =
      RunZonedVideoExperiment(clip, VideoTrack::kBaseline, 1.0, 0, 71).joules;
  double four =
      RunZonedVideoExperiment(clip, VideoTrack::kBaseline, 1.0, 4, 71).joules;
  double eight =
      RunZonedVideoExperiment(clip, VideoTrack::kBaseline, 1.0, 8, 71).joules;
  // One of four zones lit == two of eight: identical lit fraction.
  EXPECT_NEAR(four, eight, 0.01 * none);
  // 17-18% in the paper; we assert 13-21%.
  double saving = 1.0 - four / none;
  EXPECT_GT(saving, 0.13);
  EXPECT_LT(saving, 0.21);
}

TEST(ZonedVideoTest, LowestFidelityEnhancesSavings) {
  const VideoClip& clip = StandardVideoClips()[0];
  double full_none =
      RunZonedVideoExperiment(clip, VideoTrack::kBaseline, 1.0, 0, 73).joules;
  double full_four =
      RunZonedVideoExperiment(clip, VideoTrack::kBaseline, 1.0, 4, 73).joules;
  double low_none =
      RunZonedVideoExperiment(clip, VideoTrack::kPremiereC, 0.5, 0, 73).joules;
  double low_four =
      RunZonedVideoExperiment(clip, VideoTrack::kPremiereC, 0.5, 4, 73).joules;
  double low_eight =
      RunZonedVideoExperiment(clip, VideoTrack::kPremiereC, 0.5, 8, 73).joules;

  double full_saving = 1.0 - full_four / full_none;
  double low_saving_four = 1.0 - low_four / low_none;
  double low_saving_eight = 1.0 - low_eight / low_none;

  EXPECT_GT(low_saving_four, full_saving);
  // Paper: 24% (4-zone) and 28-29% (8-zone); we assert 20-33%.
  EXPECT_GT(low_saving_four, 0.20);
  EXPECT_LT(low_saving_four, 0.30);
  EXPECT_GT(low_saving_eight, low_saving_four);
  EXPECT_LT(low_saving_eight, 0.33);
}

TEST(ZonedMapTest, FullFidelityNoBenefitOnFourZones) {
  // "The map at full fidelity occupies all zones in the 4-zone case and
  // hence shows no benefits."
  const MapObject& map = StandardMaps()[0];
  double none =
      RunZonedMapExperiment(map, MapFidelity::kFull, 5.0, 0, 75).joules;
  double four =
      RunZonedMapExperiment(map, MapFidelity::kFull, 5.0, 4, 75).joules;
  EXPECT_NEAR(four, none, 0.01 * none);
}

TEST(ZonedMapTest, EightZonesHelpEvenAtFullFidelity) {
  // Six of eight zones lit: 7-8% saving at five seconds of think time.
  const MapObject& map = StandardMaps()[0];
  double none =
      RunZonedMapExperiment(map, MapFidelity::kFull, 5.0, 0, 75).joules;
  double eight =
      RunZonedMapExperiment(map, MapFidelity::kFull, 5.0, 8, 75).joules;
  double saving = 1.0 - eight / none;
  EXPECT_GT(saving, 0.05);
  EXPECT_LT(saving, 0.12);
}

TEST(ZonedMapTest, CroppedMapSpansFewerZones) {
  const MapObject& map = StandardMaps()[0];
  double none =
      RunZonedMapExperiment(map, MapFidelity::kCroppedSecondary, 5.0, 0, 77)
          .joules;
  double four =
      RunZonedMapExperiment(map, MapFidelity::kCroppedSecondary, 5.0, 4, 77)
          .joules;
  double eight =
      RunZonedMapExperiment(map, MapFidelity::kCroppedSecondary, 5.0, 8, 77)
          .joules;
  double saving_four = 1.0 - four / none;
  double saving_eight = 1.0 - eight / none;
  // Two of four zones lit / three of eight.
  EXPECT_GT(saving_four, 0.15);
  EXPECT_LT(saving_four, 0.30);
  EXPECT_GT(saving_eight, saving_four);
  EXPECT_LT(saving_eight, 0.35);
}

TEST(ZonedMapTest, SavingsGrowWithThinkTime) {
  // "The energy reduction increases with think time" — the display dominates
  // longer idle periods.
  const MapObject& map = StandardMaps()[0];
  auto saving_at = [&](double think) {
    double none =
        RunZonedMapExperiment(map, MapFidelity::kFull, think, 0, 79).joules;
    double eight =
        RunZonedMapExperiment(map, MapFidelity::kFull, think, 8, 79).joules;
    return 1.0 - eight / none;
  };
  EXPECT_GT(saving_at(20.0), saving_at(5.0));
  EXPECT_GT(saving_at(5.0), saving_at(0.0));
}

}  // namespace
}  // namespace odapps
