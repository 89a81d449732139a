// Reproduction bands for Figure 6 (video).  Paper claims, per clip:
//   - hardware-only PM saves 9-10% of baseline;
//   - Premiere-C saves 16-17% below hardware-only PM;
//   - halving the window saves 19-20% below hardware-only PM;
//   - combined saves 28-30% below hardware-only PM (~35% below baseline).
// Our asserted bands are the paper's, widened a few points for the
// simulated substrate; EXPERIMENTS.md records measured values.

#include <string>

#include <gtest/gtest.h>

#include "src/apps/experiments.h"

namespace odapps {
namespace {

class VideoBandsTest : public ::testing::TestWithParam<int> {};

TEST_P(VideoBandsTest, FigureSixRatios) {
  const VideoClip& clip = StandardVideoClips()[static_cast<size_t>(GetParam())];
  uint64_t seed = 100 + static_cast<uint64_t>(GetParam());

  double base =
      RunVideoExperiment(clip, VideoTrack::kBaseline, 1.0, false, seed).joules;
  double pm =
      RunVideoExperiment(clip, VideoTrack::kBaseline, 1.0, true, seed).joules;
  double prem_b =
      RunVideoExperiment(clip, VideoTrack::kPremiereB, 1.0, true, seed).joules;
  double prem_c =
      RunVideoExperiment(clip, VideoTrack::kPremiereC, 1.0, true, seed).joules;
  double window =
      RunVideoExperiment(clip, VideoTrack::kBaseline, 0.5, true, seed).joules;
  double combined =
      RunVideoExperiment(clip, VideoTrack::kPremiereC, 0.5, true, seed).joules;

  EXPECT_GT(pm / base, 0.88) << clip.name;
  EXPECT_LT(pm / base, 0.93) << clip.name;

  EXPECT_GT(prem_b / pm, 0.87) << clip.name;
  EXPECT_LT(prem_b / pm, 0.95) << clip.name;

  EXPECT_GT(prem_c / pm, 0.80) << clip.name;
  EXPECT_LT(prem_c / pm, 0.87) << clip.name;

  EXPECT_GT(window / pm, 0.77) << clip.name;
  EXPECT_LT(window / pm, 0.86) << clip.name;

  EXPECT_GT(combined / pm, 0.62) << clip.name;
  EXPECT_LT(combined / pm, 0.74) << clip.name;

  // Combined vs baseline: about 35% total reduction.
  EXPECT_GT(combined / base, 0.55) << clip.name;
  EXPECT_LT(combined / base, 0.68) << clip.name;

  // Ordering within the sweep: each technique helps, combined helps most.
  EXPECT_LT(pm, base);
  EXPECT_LT(prem_b, pm);
  EXPECT_LT(prem_c, prem_b);
  EXPECT_LT(combined, prem_c);
  EXPECT_LT(combined, window);
}

TEST_P(VideoBandsTest, XServerEnergyUnaffectedByCompression) {
  // "The energy used by the X server is almost completely unaffected by
  // compression" — frames are decoded before reaching X.
  const VideoClip& clip = StandardVideoClips()[static_cast<size_t>(GetParam())];
  double x_base = RunVideoExperiment(clip, VideoTrack::kBaseline, 1.0, true, 7)
                      .Process("X Server");
  double x_prem = RunVideoExperiment(clip, VideoTrack::kPremiereC, 1.0, true, 7)
                      .Process("X Server");
  EXPECT_NEAR(x_prem, x_base, 0.10 * x_base);
}

TEST_P(VideoBandsTest, WindowReductionCutsXServerEnergy) {
  // "Reducing window size significantly decreases X server energy usage"
  // (proportional to window area: quarter area -> about a quarter).
  const VideoClip& clip = StandardVideoClips()[static_cast<size_t>(GetParam())];
  double x_full = RunVideoExperiment(clip, VideoTrack::kBaseline, 1.0, true, 7)
                      .Process("X Server");
  double x_half = RunVideoExperiment(clip, VideoTrack::kBaseline, 0.5, true, 7)
                      .Process("X Server");
  double ratio = x_half / x_full;
  EXPECT_GT(ratio, 0.15);
  EXPECT_LT(ratio, 0.45);
}

TEST_P(VideoBandsTest, DiskStandbyProvidesMostOfHwPmSaving) {
  // "Most of the reduction is due to disk power management — the disk
  // remains in standby mode for the entire duration of an experiment."
  const VideoClip& clip = StandardVideoClips()[static_cast<size_t>(GetParam())];
  auto base = RunVideoExperiment(clip, VideoTrack::kBaseline, 1.0, false, 7);
  auto pm = RunVideoExperiment(clip, VideoTrack::kBaseline, 1.0, true, 7);
  double disk_delta = base.Component("Disk") - pm.Component("Disk");
  double total_delta = base.joules - pm.joules;
  EXPECT_GT(disk_delta, 0.5 * total_delta);
}

INSTANTIATE_TEST_SUITE_P(AllClips, VideoBandsTest, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Video" + std::to_string(info.param + 1);
                         });

TEST(VideoBandsTest2, BaselineHasIdleEnergyFromNetworkLimit) {
  // "Much energy is consumed while the processor is idle because of the
  // limited bandwidth of the wireless network."  Our decode/render
  // calibration leaves the CPU busier than the paper's client, so the idle
  // share is smaller but still material.
  const VideoClip& clip = StandardVideoClips()[0];
  auto m = RunVideoExperiment(clip, VideoTrack::kBaseline, 1.0, false, 7);
  auto low = RunVideoExperiment(clip, VideoTrack::kPremiereC, 1.0, true, 7);
  double base_idle = m.Process("Idle");
  double base_joules = m.joules;
  double low_idle = low.Process("Idle");
  double low_joules = low.joules;
  EXPECT_GT(base_idle, 0.02 * base_joules);
  // At Premiere-C the network and CPU are both less utilized, so the idle
  // share grows — the effect the paper attributes to the bandwidth limit.
  EXPECT_GT(low_idle / low_joules, base_idle / base_joules);
}

}  // namespace
}  // namespace odapps
