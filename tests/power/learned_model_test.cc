// Self-constructive power model: RLS core (src/power/learned_model) and the
// utilization features that feed it (src/power/utilization).  Synthetic
// regressions pin the estimator's numerics — recovery of a known linear
// model, coefficient clamping, degenerate-input rejection, covariance
// guarding — and a small two-component machine pins the probe's occupancy
// accounting against hand-computed residencies.  A differential test pins
// the touched-block update against the full-form update it replaces, bit
// for bit.

#include "src/power/learned_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/power/machine.h"
#include "src/power/utilization.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace odpower {
namespace {

// y = 6 + 2*x1 - 0.5*x2, exercised with occupancy-like features in [0, 1].
std::vector<double> Phi(double x1, double x2) { return {1.0, x1, x2}; }
double Truth(double x1, double x2) { return 6.0 + 2.0 * x1 - 0.5 * x2; }

TEST(LearnedModelTest, RecoversALinearModelFromNoisyObservations) {
  LearnedModel model(3);
  odutil::Rng rng(7);
  for (int i = 0; i < 600; ++i) {
    double x1 = rng.Uniform(0.0, 1.0);
    double x2 = rng.Uniform(0.0, 1.0);
    double noise = rng.Uniform(-0.02, 0.02);
    model.Observe(Phi(x1, x2), Truth(x1, x2) + noise);
  }
  EXPECT_NEAR(model.coefficient(0), 6.0, 0.05);
  EXPECT_NEAR(model.coefficient(1), 2.0, 0.05);
  EXPECT_NEAR(model.coefficient(2), -0.5, 0.05);
  EXPECT_TRUE(model.converged());
  EXPECT_GT(model.confidence(), 0.9);
  EXPECT_LT(model.prediction_error_fraction(), 0.01);
  // Out-of-sample prediction lands on the plane.
  EXPECT_NEAR(model.PredictWatts(Phi(0.3, 0.9)), Truth(0.3, 0.9), 0.1);
}

TEST(LearnedModelTest, TracksADriftingTargetThroughForgetting) {
  LearnedModelConfig config;
  config.forgetting = 0.98;  // Short memory so the test stays small.
  LearnedModel model(3, config);
  odutil::Rng rng(11);
  for (int i = 0; i < 400; ++i) {
    double x1 = rng.Uniform(0.0, 1.0);
    model.Observe(Phi(x1, 0.0), 6.0 + 2.0 * x1);
  }
  ASSERT_NEAR(model.coefficient(1), 2.0, 0.05);
  // The component's real draw changes; with forgetting the fit follows.
  for (int i = 0; i < 400; ++i) {
    double x1 = rng.Uniform(0.0, 1.0);
    model.Observe(Phi(x1, 0.0), 6.0 + 3.5 * x1);
  }
  EXPECT_NEAR(model.coefficient(1), 3.5, 0.1);
}

TEST(LearnedModelTest, CoefficientsClampToPhysicalBounds) {
  LearnedModelConfig config;
  config.min_coefficient_watts = -5.0;
  config.max_coefficient_watts = 25.0;
  LearnedModel model(2, config);
  // An (erroneous) 500 W target: no component of this machine draws that,
  // so the fit must saturate at the bound instead of following.
  for (int i = 0; i < 200; ++i) {
    model.Observe({1.0, 1.0}, 500.0);
  }
  EXPECT_LE(model.coefficient(0), 25.0);
  EXPECT_LE(model.coefficient(1), 25.0);
  for (int i = 0; i < 200; ++i) {
    model.Observe({1.0, 1.0}, -500.0);
  }
  EXPECT_GE(model.coefficient(0), -5.0);
  EXPECT_GE(model.coefficient(1), -5.0);
}

TEST(LearnedModelTest, NonFiniteInputsAreSkippedNotFolded) {
  LearnedModel model(2);
  model.Observe({1.0, 0.5}, 8.0);
  int samples = model.samples();
  model.Observe({1.0, 0.5}, std::nan(""));
  model.Observe({1.0, std::nan("")}, 8.0);
  model.Observe({1.0, 0.5}, std::numeric_limits<double>::infinity());
  EXPECT_EQ(model.samples(), samples);
  EXPECT_EQ(model.skipped_updates(), 3);
}

TEST(LearnedModelTest, PredictionIsClampedNonNegative) {
  LearnedModel model(2);
  for (int i = 0; i < 100; ++i) {
    model.Observe({1.0, 1.0}, 0.1);
    model.Observe({1.0, 0.0}, 2.0);
  }
  // Extrapolating past the data could go negative; a power model must not.
  EXPECT_GE(model.PredictWatts({1.0, 2.0}), 0.0);
}

TEST(LearnedModelTest, CovarianceGuardCatchesUnexcitedFeatures) {
  LearnedModel model(3);
  // Feature 2 is never excited: under forgetting its prior variance
  // inflates by 1/lambda per update, unbounded, until the guard caps it.
  // Unguarded, 20000 updates inflate it by e^20 and the condition proxy
  // runs far past max_condition.
  odutil::Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    model.Observe(Phi(rng.Uniform(0.0, 1.0), 0.0), 6.0);
  }
  EXPECT_LE(model.condition_proxy(), model.config().max_condition * 1.01);
}

TEST(LearnedModelTest, ConfidenceRampsWithSamplesAndQuality) {
  LearnedModel model(2);
  EXPECT_FALSE(model.converged());
  EXPECT_EQ(model.confidence(), 0.0);
  for (int i = 0; i < 30; ++i) {
    model.Observe({1.0, 0.5}, 7.0);
  }
  double early = model.confidence();
  EXPECT_GT(early, 0.0);
  EXPECT_FALSE(model.converged());  // Below convergence_samples.
  for (int i = 0; i < 200; ++i) {
    model.Observe({1.0, 0.5}, 7.0);
  }
  EXPECT_GT(model.confidence(), early);
  EXPECT_TRUE(model.converged());
}

// The full-form RLS update as LearnedModel computed it before the
// touched-block layout: every feature and every term, P in feature order.
// LearnedModel must reproduce it bit for bit.
class DenseReference {
 public:
  DenseReference(int dim, const LearnedModelConfig& config)
      : dim_(dim),
        config_(config),
        error_alpha_(1.0 - std::pow(0.5, 1.0 / std::max(
                                              1.0, config.error_half_life_samples))),
        theta_(static_cast<size_t>(dim), 0.0),
        p_(static_cast<size_t>(dim * dim), 0.0),
        gain_(static_cast<size_t>(dim), 0.0),
        pphi_(static_cast<size_t>(dim), 0.0) {
    for (int i = 0; i < dim; ++i) {
      P(i, i) = config.initial_variance;
    }
  }

  void Observe(const std::vector<double>& phi, double measured_watts) {
    if (!std::isfinite(measured_watts)) {
      ++skipped_updates_;
      return;
    }
    for (double f : phi) {
      if (!std::isfinite(f)) {
        ++skipped_updates_;
        return;
      }
    }
    double predicted = 0.0;
    for (int i = 0; i < dim_; ++i) {
      predicted += theta_[static_cast<size_t>(i)] * phi[static_cast<size_t>(i)];
    }
    double abs_error = std::abs(measured_watts - predicted);
    if (!ewma_primed_) {
      error_ewma_ = abs_error;
      level_ewma_ = std::abs(measured_watts);
      ewma_primed_ = true;
    } else {
      error_ewma_ += error_alpha_ * (abs_error - error_ewma_);
      level_ewma_ += error_alpha_ * (std::abs(measured_watts) - level_ewma_);
    }
    double denom = config_.forgetting;
    for (int i = 0; i < dim_; ++i) {
      double acc = 0.0;
      for (int j = 0; j < dim_; ++j) {
        acc += P(i, j) * phi[static_cast<size_t>(j)];
      }
      pphi_[static_cast<size_t>(i)] = acc;
      denom += acc * phi[static_cast<size_t>(i)];
    }
    if (denom < config_.min_denominator) {
      ++skipped_updates_;
      return;
    }
    for (int i = 0; i < dim_; ++i) {
      gain_[static_cast<size_t>(i)] = pphi_[static_cast<size_t>(i)] / denom;
      if (std::isfinite(pphi_[static_cast<size_t>(i)]) && std::isfinite(denom) &&
          !std::isfinite(gain_[static_cast<size_t>(i)])) {
        gain_overflowed_ = true;
      }
    }
    double innovation = measured_watts - predicted;
    for (int i = 0; i < dim_; ++i) {
      theta_[static_cast<size_t>(i)] =
          std::clamp(theta_[static_cast<size_t>(i)] +
                         gain_[static_cast<size_t>(i)] * innovation,
                     config_.min_coefficient_watts, config_.max_coefficient_watts);
    }
    for (int i = 0; i < dim_; ++i) {
      for (int j = 0; j < dim_; ++j) {
        P(i, j) = (P(i, j) - gain_[static_cast<size_t>(i)] *
                                 pphi_[static_cast<size_t>(j)]) /
                  config_.forgetting;
      }
    }
    for (int i = 0; i < dim_; ++i) {
      for (int j = i + 1; j < dim_; ++j) {
        double mean = 0.5 * (P(i, j) + P(j, i));
        P(i, j) = mean;
        P(j, i) = mean;
      }
    }
    double max_diag = 0.0;
    for (int i = 0; i < dim_; ++i) {
      if (P(i, i) > config_.initial_variance) {
        P(i, i) = config_.initial_variance;
      }
      max_diag = std::max(max_diag, P(i, i));
    }
    double floor = max_diag / config_.max_condition;
    for (int i = 0; i < dim_; ++i) {
      if (P(i, i) < floor) {
        P(i, i) = floor;
      }
    }
    ++samples_;
  }

  const std::vector<double>& coefficients() const { return theta_; }
  int samples() const { return samples_; }
  int skipped_updates() const { return skipped_updates_; }
  double prediction_error_fraction() const {
    if (!ewma_primed_ || level_ewma_ <= 0.0) {
      return 1.0;
    }
    return error_ewma_ / level_ewma_;
  }
  double confidence() const {
    double ramp = std::min(
        1.0, static_cast<double>(samples_) /
                 static_cast<double>(std::max(1, config_.convergence_samples)));
    double quality = std::clamp(1.0 - prediction_error_fraction(), 0.0, 1.0);
    return ramp * quality;
  }
  double condition_proxy() const {
    double max_diag = 0.0;
    double min_diag = p_[0];
    for (int i = 0; i < dim_; ++i) {
      max_diag = std::max(max_diag, p_[static_cast<size_t>(i * dim_ + i)]);
      min_diag = std::min(min_diag, p_[static_cast<size_t>(i * dim_ + i)]);
    }
    return min_diag > 0.0 ? max_diag / min_diag
                          : std::numeric_limits<double>::infinity();
  }
  // Some covariance entry is inf or NaN.
  bool p_non_finite() const {
    return std::any_of(p_.begin(), p_.end(),
                       [](double x) { return !std::isfinite(x); });
  }
  // Some update divided a finite P phi by a finite denominator and got a
  // non-finite gain.
  bool gain_overflowed() const { return gain_overflowed_; }

 private:
  double& P(int row, int col) {
    return p_[static_cast<size_t>(row * dim_ + col)];
  }

  int dim_;
  LearnedModelConfig config_;
  double error_alpha_;
  std::vector<double> theta_;
  std::vector<double> p_;
  std::vector<double> gain_;
  std::vector<double> pphi_;
  int samples_ = 0;
  int skipped_updates_ = 0;
  double error_ewma_ = 0.0;
  double level_ewma_ = 0.0;
  bool ewma_primed_ = false;
  bool gain_overflowed_ = false;
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Every observable of `model` equals the reference's, bit for bit.
::testing::AssertionResult SameState(const LearnedModel& model,
                                     const DenseReference& ref) {
  const std::vector<double>& got = model.coefficients();
  const std::vector<double>& want = ref.coefficients();
  if (got.size() != want.size() ||
      std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) != 0) {
    auto failure = ::testing::AssertionFailure() << "coefficients differ:";
    for (size_t i = 0; i < got.size() && i < want.size(); ++i) {
      failure << " [" << i << "] " << got[i] << " vs " << want[i];
    }
    return failure;
  }
  if (model.samples() != ref.samples() ||
      model.skipped_updates() != ref.skipped_updates()) {
    return ::testing::AssertionFailure()
           << "counts differ: samples " << model.samples() << " vs "
           << ref.samples() << ", skipped "
           << model.skipped_updates() << " vs " << ref.skipped_updates();
  }
  if (!SameBits(model.condition_proxy(), ref.condition_proxy()) ||
      !SameBits(model.prediction_error_fraction(),
                ref.prediction_error_fraction()) ||
      !SameBits(model.confidence(), ref.confidence())) {
    return ::testing::AssertionFailure()
           << "signals differ: condition " << model.condition_proxy() << " vs "
           << ref.condition_proxy() << ", error "
           << model.prediction_error_fraction() << " vs "
           << ref.prediction_error_fraction() << ", confidence "
           << model.confidence() << " vs " << ref.confidence();
  }
  return ::testing::AssertionSuccess();
}

// Fills phi for step `step` and returns the measured watts.
using Stream = std::function<double(int step, std::vector<double>* phi)>;

// Feeds `steps` observations to a LearnedModel and a DenseReference and
// compares them after every update.  Returns the reference for further
// assertions about what the stream did to it.
DenseReference DriveBoth(int dim, const LearnedModelConfig& config, int steps,
                         const Stream& stream) {
  LearnedModel model(dim, config);
  DenseReference ref(dim, config);
  std::vector<double> phi(static_cast<size_t>(dim));
  for (int step = 0; step < steps; ++step) {
    std::fill(phi.begin(), phi.end(), 0.0);
    double watts = stream(step, &phi);
    model.Observe(phi, watts);
    ref.Observe(phi, watts);
    EXPECT_TRUE(SameState(model, ref)) << "after step " << step;
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
  return ref;
}

TEST(LearnedModelTest, MatchesDenseReferenceBitForBit) {
  // 0/1 indicator streams: the intercept is always on, feature k joins at
  // step 40 k and then toggles, so the touched block grows mid-run.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "indicator seed " << seed);
    odutil::Rng rng(seed);
    std::vector<bool> on(11, false);
    DriveBoth(11, LearnedModelConfig{}, 800, [&](int step, std::vector<double>* phi) {
      double watts = 3.5 + rng.Normal(0.0, 0.05);
      (*phi)[0] = 1.0;
      for (size_t k = 1; k < phi->size(); ++k) {
        if (step >= 40 * static_cast<int>(k) && rng.Bernoulli(0.1)) {
          on[k] = !on[k];
        }
        (*phi)[k] = on[k] ? 1.0 : 0.0;
        watts += on[k] ? 0.5 * static_cast<double>(k) : 0.0;
      }
      return watts;
    });
  }

  // Fractional occupancy windows, some exactly zero and some -0.0, over a
  // stream where features join in a scrambled order.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "fractional seed " << seed);
    odutil::Rng rng(seed + 100);
    std::vector<int> joins_at(9);
    for (int& at : joins_at) {
      at = rng.UniformInt(0, 400);
    }
    DriveBoth(9, LearnedModelConfig{}, 600, [&](int step, std::vector<double>* phi) {
      double watts = 4.0;
      for (size_t k = 0; k < phi->size(); ++k) {
        if (step < joins_at[k] || rng.Bernoulli(0.4)) {
          continue;
        }
        double f = rng.Bernoulli(0.05) ? -0.0 : rng.Uniform(0.0, 1.0);
        (*phi)[k] = f;
        watts += f * (1.0 + static_cast<double>(k));
      }
      return watts + rng.Normal(0.0, 0.02);
    });
  }

  // A goal-run-shaped indicator stream: intercept, a CPU bit, a one-hot
  // network state, features 6..9 never on, and a display bit that goes
  // quiet for long stretches.  Collinear indicators under forgetting
  // inflate P's off-diagonals past what the diagonal guard bounds, until P
  // overflows; from there inf * 0 = NaN must propagate exactly as in the
  // full form.
  for (uint64_t seed : {31, 35}) {
    SCOPED_TRACE(::testing::Message() << "overflowing seed " << seed);
    odutil::Rng rng(seed);
    bool cpu = false;
    bool display = true;
    int network = 0;
    const double network_watts[] = {0.0, 0.0, 1.4, 0.2, 1.6, 0.1};
    DenseReference ref =
        DriveBoth(11, LearnedModelConfig{}, 3000, [&](int, std::vector<double>* phi) {
          cpu = rng.Bernoulli(0.05) ? !cpu : cpu;
          display = rng.Bernoulli(0.002) ? !display : display;
          if (rng.Bernoulli(0.02)) {
            double r = rng.Uniform(0.0, 1.0);
            network = r < 0.4 ? 0 : r < 0.6 ? 2 : r < 0.8 ? 4 : r < 0.98 ? 5 : 3;
          }
          (*phi)[0] = 1.0;
          (*phi)[1] = cpu ? 1.0 : 0.0;
          if (network != 0) {
            (*phi)[static_cast<size_t>(network)] = 1.0;
          }
          (*phi)[10] = display ? 1.0 : 0.0;
          return 3.5 + (cpu ? 3.1 : 0.0) + network_watts[network] +
                 (display ? 6.0 : 0.0) + rng.Normal(0.0, 0.02);
        });
    EXPECT_TRUE(ref.p_non_finite());
  }

  // Gain overflow: with lambda at the smallest subnormal, a tiny feature
  // value makes k = P phi / (lambda + phi' P phi) exceed the double range
  // from finite operands.  Inert features ride along.
  {
    SCOPED_TRACE("gain overflow");
    LearnedModelConfig config;
    config.forgetting = std::numeric_limits<double>::denorm_min();
    config.initial_variance = 1e300;
    config.min_denominator = 0.0;
    DenseReference ref =
        DriveBoth(3, config, 4, [&](int step, std::vector<double>* phi) {
          (*phi)[1] = step == 0 ? 2e-312 : 1.0;
          return 5.0;
        });
    EXPECT_TRUE(ref.gain_overflowed());
  }

  // Degenerate denominators (a bar most updates fall under), non-finite
  // inputs, and lambda = 1 (no forgetting, so inert diagonals are never
  // capped).
  for (int variant = 0; variant < 2; ++variant) {
    SCOPED_TRACE(::testing::Message() << "edge variant " << variant);
    LearnedModelConfig config;
    if (variant == 0) {
      config.min_denominator = 2.0;
    } else {
      config.forgetting = 1.0;
    }
    odutil::Rng rng(31 + static_cast<uint64_t>(variant));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    DriveBoth(6, config, 600, [&](int step, std::vector<double>* phi) {
      (*phi)[0] = 1.0;
      for (size_t k = 1; k < phi->size(); ++k) {
        if (step >= 50 * static_cast<int>(k) && rng.Bernoulli(0.3)) {
          (*phi)[k] = rng.Bernoulli(0.5) ? 1.0 : rng.Uniform(0.0, 2.0);
        }
      }
      if (rng.Bernoulli(0.02)) {
        (*phi)[static_cast<size_t>(rng.UniformInt(0, 5))] =
            rng.Bernoulli(0.5) ? nan : -inf;
      }
      double watts = 6.0 + 2.0 * (*phi)[1] + rng.Normal(0.0, 0.1);
      return rng.Bernoulli(0.02) ? (rng.Bernoulli(0.5) ? nan : inf) : watts;
    });
  }
}

TEST(UtilizationProbeTest, OccupanciesMatchHandComputedResidency) {
  odsim::Simulator sim;
  Machine machine(&sim, 0.0);
  Component* a = machine.AddComponent(
      std::make_unique<Component>("a", std::vector<double>{1.0, 2.0}, 0));
  Component* b = machine.AddComponent(std::make_unique<Component>(
      "b", std::vector<double>{0.5, 1.0, 3.0}, 1));

  UtilizationProbe probe(&machine, sim.Now());
  // dim = 1 intercept + (2-1) + (3-1) non-baseline states.
  ASSERT_EQ(probe.dim(), 4);
  EXPECT_EQ(probe.FeatureName(0), "bias");

  sim.Schedule(odsim::SimDuration::Seconds(2), [&] { a->SetState(1); });
  sim.Schedule(odsim::SimDuration::Seconds(6), [&] { a->SetState(0); });
  sim.Schedule(odsim::SimDuration::Seconds(8), [&] { b->SetState(2); });
  sim.RunUntil(odsim::SimTime::Seconds(10));

  double window = 0.0;
  std::vector<double> phi;
  probe.DrainWindow(sim.Now(), &window, &phi);
  EXPECT_DOUBLE_EQ(window, 10.0);
  ASSERT_EQ(phi.size(), 4u);
  EXPECT_DOUBLE_EQ(phi[0], 1.0);
  // a spent [2 s, 6 s) in state 1 -> 0.4 of the window; b spent [8 s, 10 s)
  // in state 2 -> 0.2.  b's state 0 was never entered.
  double occupancy_a1 = 0.0;
  double occupancy_b0 = 0.0;
  double occupancy_b2 = 0.0;
  for (int i = 1; i < probe.dim(); ++i) {
    if (probe.FeatureName(i) == "a[1]") occupancy_a1 = phi[static_cast<size_t>(i)];
    if (probe.FeatureName(i) == "b[0]") occupancy_b0 = phi[static_cast<size_t>(i)];
    if (probe.FeatureName(i) == "b[2]") occupancy_b2 = phi[static_cast<size_t>(i)];
  }
  EXPECT_NEAR(occupancy_a1, 0.4, 1e-12);
  EXPECT_NEAR(occupancy_b0, 0.0, 1e-12);
  EXPECT_NEAR(occupancy_b2, 0.2, 1e-12);

  // The drain reset the window: an immediate re-drain is empty.
  std::vector<double> empty;
  probe.DrainWindow(sim.Now(), &window, &empty);
  EXPECT_DOUBLE_EQ(window, 0.0);

  // Truth access (evaluation only): increments over each component's
  // baseline state, and the resting intercept.
  for (int i = 1; i < probe.dim(); ++i) {
    if (probe.FeatureName(i) == "a[1]") {
      EXPECT_DOUBLE_EQ(probe.TrueIncrementWatts(i), 1.0);  // 2.0 - 1.0
    }
    if (probe.FeatureName(i) == "b[2]") {
      EXPECT_DOUBLE_EQ(probe.TrueIncrementWatts(i), 2.0);  // 3.0 - 1.0
    }
  }
  EXPECT_DOUBLE_EQ(probe.TrueInterceptWatts(), 2.0);  // a@1.0 + b@1.0.

  // Cumulative excitation survives drains.
  for (int i = 1; i < probe.dim(); ++i) {
    if (probe.FeatureName(i) == "a[1]") {
      EXPECT_NEAR(probe.FeatureSeconds(i), 4.0, 1e-12);
    }
  }
  EXPECT_NEAR(probe.FeatureSeconds(0), 10.0, 1e-12);
}

TEST(UtilizationProbeTest, FeatureStreamCarriesNoCalibratedWattage) {
  // The identifiability contract: occupancies within a window plus the
  // intercept sum to at most 1 per component, and a fully resting machine
  // yields the bare intercept — the features are dimensionless activity,
  // never watts.
  odsim::Simulator sim;
  Machine machine(&sim, 0.0);
  machine.AddComponent(
      std::make_unique<Component>("c", std::vector<double>{4.0, 9.0}, 0));
  UtilizationProbe probe(&machine, sim.Now());
  sim.RunUntil(odsim::SimTime::Seconds(5));
  double window = 0.0;
  std::vector<double> phi;
  probe.DrainWindow(sim.Now(), &window, &phi);
  ASSERT_EQ(phi.size(), 2u);
  EXPECT_DOUBLE_EQ(phi[0], 1.0);
  EXPECT_DOUBLE_EQ(phi[1], 0.0);  // Resting: no trace of the 4 W draw.
}

}  // namespace
}  // namespace odpower
