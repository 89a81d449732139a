// Section 3.8 / Figure 16 summary claims, computed over all sixteen data
// objects exactly as the paper's summary table is:
//   - fidelity reduction alone saves 7-72% (mean 36%);
//   - combined with hardware power management: 31-76% (mean 50%) —
//     "in effect, doubling battery life";
//   - video shows little variation across data objects; others vary widely.

#include <vector>

#include <gtest/gtest.h>

#include "src/apps/experiments.h"
#include "src/util/stats.h"

namespace odapps {
namespace {

struct AppSummary {
  std::vector<double> hw_ratio;        // hw-pm / baseline, per object.
  std::vector<double> fidelity_ratio;  // lowest / hw-pm, per object.
  std::vector<double> combined_ratio;  // lowest / baseline, per object.
};

void AddObject(AppSummary& s, double base, double pm, double low) {
  s.hw_ratio.push_back(pm / base);
  s.fidelity_ratio.push_back(low / pm);
  s.combined_ratio.push_back(low / base);
}

AppSummary VideoSummary() {
  AppSummary s;
  for (size_t i = 0; i < 4; ++i) {
    const VideoClip& clip = StandardVideoClips()[i];
    uint64_t seed = 500 + i;
    double base =
        RunVideoExperiment(clip, VideoTrack::kBaseline, 1.0, false, seed).joules;
    double pm =
        RunVideoExperiment(clip, VideoTrack::kBaseline, 1.0, true, seed).joules;
    double low =
        RunVideoExperiment(clip, VideoTrack::kPremiereC, 0.5, true, seed).joules;
    AddObject(s, base, pm, low);
  }
  return s;
}

AppSummary SpeechSummary() {
  AppSummary s;
  for (size_t i = 0; i < 4; ++i) {
    const Utterance& u = StandardUtterances()[i];
    uint64_t seed = 520 + i;
    double base =
        RunSpeechExperiment(u, SpeechMode::kLocal, false, false, seed).joules;
    double pm = RunSpeechExperiment(u, SpeechMode::kLocal, false, true, seed).joules;
    double low =
        RunSpeechExperiment(u, SpeechMode::kHybrid, true, true, seed).joules;
    AddObject(s, base, pm, low);
  }
  return s;
}

AppSummary MapSummary() {
  AppSummary s;
  for (size_t i = 0; i < 4; ++i) {
    const MapObject& map = StandardMaps()[i];
    uint64_t seed = 540 + i;
    double base = RunMapExperiment(map, MapFidelity::kFull, 5.0, false, seed).joules;
    double pm = RunMapExperiment(map, MapFidelity::kFull, 5.0, true, seed).joules;
    double low =
        RunMapExperiment(map, MapFidelity::kCroppedSecondary, 5.0, true, seed)
            .joules;
    AddObject(s, base, pm, low);
  }
  return s;
}

AppSummary WebSummary() {
  AppSummary s;
  for (size_t i = 0; i < 4; ++i) {
    const WebImage& image = StandardWebImages()[i];
    uint64_t seed = 560 + i;
    double base =
        RunWebExperiment(image, WebFidelity::kOriginal, 5.0, false, seed).joules;
    double pm =
        RunWebExperiment(image, WebFidelity::kOriginal, 5.0, true, seed).joules;
    double low = RunWebExperiment(image, WebFidelity::kJpeg5, 5.0, true, seed).joules;
    AddObject(s, base, pm, low);
  }
  return s;
}

TEST(SummaryClaimsTest, MeanSavingsMatchAbstract) {
  std::vector<AppSummary> apps = {VideoSummary(), SpeechSummary(), MapSummary(),
                                  WebSummary()};
  odutil::RunningStats fidelity, combined;
  for (const AppSummary& app : apps) {
    for (double r : app.fidelity_ratio) {
      fidelity.Add(1.0 - r);
    }
    for (double r : app.combined_ratio) {
      combined.Add(1.0 - r);
    }
  }
  // Paper: fidelity savings mean 36%, combined mean 50%.
  EXPECT_GT(fidelity.mean(), 0.26);
  EXPECT_LT(fidelity.mean(), 0.46);
  EXPECT_GT(combined.mean(), 0.40);
  EXPECT_LT(combined.mean(), 0.60);
  // Ranges (paper: fidelity 7-72%, combined 31-76%).  Our 110-byte web
  // image genuinely cannot save anything through distillation, so the
  // fidelity floor is ~0 rather than the paper's 7%.
  EXPECT_GT(fidelity.min(), -0.02);
  EXPECT_LT(fidelity.max(), 0.75);
  EXPECT_GT(combined.min(), 0.18);
  EXPECT_LT(combined.max(), 0.80);
}

TEST(SummaryClaimsTest, VideoVariesLittleAcrossObjects) {
  // "Video is the only application that shows little variation across data
  // objects."
  AppSummary video = VideoSummary();
  odutil::Summary spread = odutil::Summarize(video.combined_ratio);
  EXPECT_LT(spread.max - spread.min, 0.06);
}

TEST(SummaryClaimsTest, MapVariesWidelyAcrossObjects) {
  AppSummary map = MapSummary();
  odutil::Summary spread = odutil::Summarize(map.combined_ratio);
  EXPECT_GT(spread.max - spread.min, 0.10);
}

TEST(SummaryClaimsTest, SpeechHasDeepestCombinedSavings) {
  // Speech reaches the lowest combined ratio of the four applications
  // (0.20-0.31 in the paper).
  double speech_best = odutil::Summarize(SpeechSummary().combined_ratio).min;
  double video_best = odutil::Summarize(VideoSummary().combined_ratio).min;
  double web_best = odutil::Summarize(WebSummary().combined_ratio).min;
  EXPECT_LT(speech_best, video_best);
  EXPECT_LT(speech_best, web_best);
}

TEST(SummaryClaimsTest, WebHasShallowestFidelitySavings) {
  double web_mean = odutil::Summarize(WebSummary().fidelity_ratio).mean;
  double video_mean = odutil::Summarize(VideoSummary().fidelity_ratio).mean;
  double speech_mean = odutil::Summarize(SpeechSummary().fidelity_ratio).mean;
  double map_mean = odutil::Summarize(MapSummary().fidelity_ratio).mean;
  EXPECT_GT(web_mean, video_mean);
  EXPECT_GT(web_mean, speech_mean);
  EXPECT_GT(web_mean, map_mean);
}

}  // namespace
}  // namespace odapps
