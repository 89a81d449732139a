// Reproduction bands for Figures 13 and 14 (web browser).  Paper claims:
//   - hardware-only PM saves 22-26% of baseline;
//   - even at JPEG quality 5 the further saving is merely 4-14%;
//   - energy is linear in think time; fidelity lines are closely spaced.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/experiments.h"
#include "src/util/stats.h"

namespace odapps {
namespace {

class WebBandsTest : public ::testing::TestWithParam<int> {};

TEST_P(WebBandsTest, FigureThirteenRatios) {
  const WebImage& image = StandardWebImages()[static_cast<size_t>(GetParam())];
  uint64_t seed = 400 + static_cast<uint64_t>(GetParam());
  constexpr double kThink = 5.0;

  double base =
      RunWebExperiment(image, WebFidelity::kOriginal, kThink, false, seed)
          .joules;
  double pm =
      RunWebExperiment(image, WebFidelity::kOriginal, kThink, true, seed)
          .joules;
  double j75 =
      RunWebExperiment(image, WebFidelity::kJpeg75, kThink, true, seed).joules;
  double j5 =
      RunWebExperiment(image, WebFidelity::kJpeg5, kThink, true, seed).joules;

  EXPECT_GT(pm / base, 0.72) << image.name;
  EXPECT_LT(pm / base, 0.82) << image.name;

  // "The energy benefits of fidelity reduction are disappointing": even the
  // most aggressive distillation saves at most ~15%.
  EXPECT_GT(j5 / pm, 0.84) << image.name;
  EXPECT_LE(j5 / pm, 1.0) << image.name;
  EXPECT_GT(j75 / pm, 0.90) << image.name;

  // Fidelity steps are monotone.
  EXPECT_LE(j5, j75) << image.name;
  EXPECT_LE(j75, pm) << image.name;
}

INSTANTIATE_TEST_SUITE_P(AllImages, WebBandsTest, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Image" + std::to_string(info.param + 1);
                         });

TEST(WebThinkTimeTest, LinearModelAndCloseFidelityLines) {
  // Figure 14: baseline diverges from the managed cases; the managed and
  // lowest-fidelity lines are nearly coincident.
  const WebImage& image = StandardWebImages()[0];
  std::vector<double> thinks = {0.0, 5.0, 10.0, 20.0};

  auto sweep = [&](WebFidelity fidelity, bool pm) {
    std::vector<double> joules;
    for (double think : thinks) {
      joules.push_back(RunWebExperiment(image, fidelity, think, pm, 41).joules);
    }
    return odutil::FitLine(thinks, joules);
  };

  odutil::LinearFit baseline = sweep(WebFidelity::kOriginal, false);
  odutil::LinearFit hw = sweep(WebFidelity::kOriginal, true);
  odutil::LinearFit lowest = sweep(WebFidelity::kJpeg5, true);

  EXPECT_GT(baseline.r_squared, 0.999);
  EXPECT_GT(hw.r_squared, 0.999);
  EXPECT_GT(lowest.r_squared, 0.999);
  EXPECT_GT(baseline.slope, hw.slope + 1.0);
  EXPECT_NEAR(hw.slope, lowest.slope, 0.15);
  // Close spacing: the lowest-fidelity line sits only a few joules below.
  EXPECT_LT(hw.intercept - lowest.intercept, 8.0);
  EXPECT_GT(hw.intercept - lowest.intercept, 0.0);
}

TEST(WebBandsTest2, MostPmSavingsOccurDuringThinkTime) {
  // "The shadings indicate that most of this savings occurs in the idle
  // state, probably during think time."
  const WebImage& image = StandardWebImages()[0];
  auto base = RunWebExperiment(image, WebFidelity::kOriginal, 5.0, false, 43);
  auto pm = RunWebExperiment(image, WebFidelity::kOriginal, 5.0, true, 43);
  double idle_delta = base.Process("Idle") - pm.Process("Idle");
  double total_delta = base.joules - pm.joules;
  EXPECT_GT(idle_delta, 0.6 * total_delta);
}

TEST(WebBandsTest2, DistillationServerBearsTranscodingCost) {
  // Transcoding happens at the server; the client pays only a waiting cost,
  // so a distilled fetch is never more expensive than the original.
  const WebImage& image = StandardWebImages()[0];
  double original =
      RunWebExperiment(image, WebFidelity::kOriginal, 0.0, true, 43).joules;
  double distilled =
      RunWebExperiment(image, WebFidelity::kJpeg25, 0.0, true, 43).joules;
  EXPECT_LT(distilled, original);
}

}  // namespace
}  // namespace odapps
