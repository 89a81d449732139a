// TelemetryHealth driven directly, without a director or a simulation
// loop: one case per health transition, a seeded property test over random
// sample streams, and regression cases for the edges of gap bridging and
// the silence watchdog (DESIGN.md §7).

#include "src/energy/telemetry_health.h"

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/energy/goal_director.h"
#include "src/power/thinkpad560x.h"
#include "src/sim/simulator.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace odenergy {
namespace {

using Transition = TelemetryHealth::Transition;

constexpr double kPeriod = 0.1;
const double kNan = std::numeric_limits<double>::quiet_NaN();

// Only the sampling period and the integral are read.
class FakeMonitor : public odscope::PowerMonitor {
 public:
  void Start() override {}
  void Stop() override {}
  double last_watts() const override { return 0.0; }
  double measured_joules() const override { return 0.0; }
  odsim::SimDuration period() const override {
    return odsim::SimDuration::Seconds(kPeriod);
  }
  void set_callback(SampleFn) override {}
};

// A health machine fed at 10 Hz from t = 0.  The learned estimator (and,
// with it, the drift sentinel) is attached only by the drift cases.
struct Feed {
  GoalDirectorConfig config;
  FakeMonitor monitor;
  TelemetryHealth health{config, &monitor};
  odsim::SimTime now = odsim::SimTime::Zero();
  double smoothed_watts = 10.0;
  odsim::Simulator sim;
  std::unique_ptr<odpower::Laptop> laptop;
  std::unique_ptr<LearnedEstimator> learned;

  Feed() { health.Start(now); }

  void AttachLearned() {
    config.drift_sentinel.enabled = true;
    laptop = odpower::MakeThinkPad560X(&sim);
    learned = std::make_unique<LearnedEstimator>(&laptop->machine(), now);
    health.AttachLearnedEstimator(learned.get());
  }

  TelemetryHealth::StepResult Sample(double watts) {
    now = now + odsim::SimDuration::Seconds(kPeriod);
    return health.Step(now, watts, kPeriod, smoothed_watts);
  }

  // Feeds `watts` until `done` holds after a sample; returns the last
  // sample's result and sets `*steps`.  Fails the test past `limit`.
  TelemetryHealth::StepResult SampleUntil(double watts,
                                          const std::function<bool()>& done,
                                          int* steps = nullptr,
                                          int limit = 5000) {
    TelemetryHealth::StepResult result;
    int n = 0;
    do {
      result = Sample(watts);
      ++n;
    } while (!done() && n < limit);
    EXPECT_TRUE(done()) << "still not done after " << limit << " samples";
    if (steps != nullptr) {
      *steps = n;
    }
    return result;
  }

  // The learned model converges on a steady 10 W gauge and proves itself
  // against a judgeable in-band window.
  void ConvergeHealthy() {
    for (int i = 0; i < 900; ++i) {
      Sample(10.0);
    }
  }
  // A 1.4x over-reading — plausible sample by sample — until the verdict.
  void DriftUntilVerdict() {
    SampleUntil(14.0, [this] { return health.drift().active(); });
  }
};

struct TransitionCase {
  std::string name;
  std::function<void(Feed&)> setup;  // Drives into the `from` state.
  std::function<Transition(Feed&, int* steps)> trigger;
  ControllerHealth from;
  ControllerHealth to;
  Transition transition;
  int steps;  // Samples the trigger takes; 0 when not pinned.
};

Transition One(Feed& feed, double watts, int* steps) {
  *steps = 1;
  return feed.Sample(watts).transition;
}

std::vector<TransitionCase> TransitionTable() {
  return {
      {"HealthyToSuspectOnInvalidReading",
       [](Feed& f) { f.Sample(10.0); },
       [](Feed& f, int* steps) { return One(f, kNan, steps); },
       ControllerHealth::kHealthy, ControllerHealth::kSuspect,
       Transition::kNone, 1},
      {"HealthyToSuspectOnRepeatedReading",
       [](Feed& f) {
         f.config.stale_sample_limit = 3;
         f.Sample(10.0);
       },
       [](Feed& f, int* steps) { return One(f, 10.0, steps); },
       ControllerHealth::kHealthy, ControllerHealth::kSuspect,
       Transition::kNone, 1},
      {"SuspectToHealthyOnValidReading",
       [](Feed& f) {
         f.Sample(10.0);
         f.Sample(-1.0);
       },
       [](Feed& f, int* steps) { return One(f, 10.0, steps); },
       ControllerHealth::kSuspect, ControllerHealth::kHealthy,
       Transition::kNone, 1},
      {"SuspectToSafeModeAtInvalidLimit",
       [](Feed& f) {
         f.Sample(kNan);
         f.Sample(kNan);
       },
       [](Feed& f, int* steps) { return One(f, 99.0, steps); },
       ControllerHealth::kSuspect, ControllerHealth::kSafeMode,
       Transition::kEnterSafeMode, 1},
      {"HealthyToSafeModeOnSilence",
       [](Feed& f) { f.Sample(10.0); },
       [](Feed& f, int* steps) {
         *steps = 0;
         f.now = f.now + odsim::SimDuration::Seconds(0.5);
         return f.health.CheckSilence(f.now) ? Transition::kEnterSafeMode
                                             : Transition::kNone;
       },
       ControllerHealth::kHealthy, ControllerHealth::kSafeMode,
       Transition::kEnterSafeMode, 0},
      {"SafeModeRecoversAfterValidStreak",
       [](Feed& f) {
         for (int i = 0; i < 3; ++i) f.Sample(kNan);
       },
       [](Feed& f, int* steps) {
         return f.SampleUntil(10.0, [&f] { return !f.health.safe_mode().active(); },
                              steps).transition;
       },
       ControllerHealth::kSafeMode, ControllerHealth::kHealthy,
       Transition::kExitSafeMode, 8},
      {"HealthyToGaugeDriftOnSustainedOverReading",
       [](Feed& f) {
         f.AttachLearned();
         f.ConvergeHealthy();
       },
       [](Feed& f, int* steps) {
         return f.SampleUntil(14.0, [&f] { return f.health.drift().active(); },
                              steps).transition;
       },
       ControllerHealth::kHealthy, ControllerHealth::kGaugeDrift,
       Transition::kNone, 0},
      {"GaugeDriftLiftsAfterInBandStreak",
       [](Feed& f) {
         f.AttachLearned();
         f.ConvergeHealthy();
         f.DriftUntilVerdict();
       },
       [](Feed& f, int* steps) {
         return f.SampleUntil(10.0, [&f] { return !f.health.drift().active(); },
                              steps).transition;
       },
       ControllerHealth::kGaugeDrift, ControllerHealth::kHealthy,
       Transition::kNone, 50},
      {"DriftVerdictOutlivesSafeMode",
       [](Feed& f) {
         f.config.health_recovery_samples = 500;
         f.AttachLearned();
         f.ConvergeHealthy();
         for (int i = 0; i < 3; ++i) f.Sample(kNan);
         f.DriftUntilVerdict();  // Convicted from safe mode's valid samples.
       },
       [](Feed& f, int* steps) {
         return f.SampleUntil(14.0, [&f] { return !f.health.safe_mode().active(); },
                              steps).transition;
       },
       ControllerHealth::kSafeMode, ControllerHealth::kGaugeDrift,
       Transition::kExitSafeMode, 0},
  };
}

TEST(TelemetryHealthTest, EachTransitionOfTheTable) {
  for (const TransitionCase& c : TransitionTable()) {
    SCOPED_TRACE(c.name);
    Feed feed;
    c.setup(feed);
    ASSERT_EQ(feed.health.health(), c.from);
    int steps = -1;
    EXPECT_EQ(c.trigger(feed, &steps), c.transition);
    EXPECT_EQ(feed.health.health(), c.to);
    if (c.steps > 0) {
      EXPECT_EQ(steps, c.steps);
    }
  }
}

// One random stream: readings valid, repeated, non-finite, negative or
// implausible, at gaps of zero to several periods, with the silence
// watchdog polled in between.  Checks every step against the properties
// the residual estimate and the safe-mode policy rely on.
void CheckRandomStream(odutil::Rng& rng) {
  Feed feed;
  feed.config.invalid_sample_limit = rng.UniformInt(1, 4);
  feed.config.health_recovery_samples = rng.UniformInt(1, 10);
  feed.config.stale_sample_limit = rng.UniformInt(0, 3);
  TelemetryHealth& health = feed.health;
  int rejected = 0;
  int clean_in_safe_mode = 0;
  double last_valid = 10.0;
  for (int step = 0; step < 60; ++step) {
    double advance = rng.Bernoulli(0.1)   ? 0.0
                     : rng.Bernoulli(0.8) ? kPeriod
                                          : kPeriod * rng.UniformInt(2, 6);
    feed.now = feed.now + odsim::SimDuration::Seconds(advance);
    if (rng.Bernoulli(0.1) && health.CheckSilence(feed.now)) {
      clean_in_safe_mode = 0;
    }
    double roll = rng.NextDouble();
    double watts = roll < 0.5    ? rng.Uniform(0.0, 15.0)
                   : roll < 0.6  ? last_valid
                   : roll < 0.7  ? kNan
                   : roll < 0.75 ? std::numeric_limits<double>::infinity()
                   : roll < 0.85 ? -rng.Uniform(0.001, 5.0)
                                 : rng.Uniform(15.001, 40.0);
    feed.smoothed_watts = rng.Uniform(0.0, 15.0);

    const bool was_safe = health.safe_mode().active();
    const double debit = health.telemetry_debit_joules();
    const int gaps = health.telemetry_gaps();
    TelemetryHealth::StepResult result =
        health.Step(feed.now, watts, kPeriod, feed.smoothed_watts);
    const double delta = health.telemetry_debit_joules() - debit;

    if (!result.demand_watts.has_value()) {
      ++rejected;
      clean_in_safe_mode = 0;
      EXPECT_EQ(health.telemetry_gaps(), gaps);
      if (std::isfinite(watts)) {
        double recount = (feed.smoothed_watts - watts) * kPeriod;
        EXPECT_NEAR(delta, recount, 1e-9 * (1.0 + std::abs(debit)));
      } else {
        EXPECT_EQ(delta, 0.0);
      }
      EXPECT_NE(result.transition, Transition::kExitSafeMode);
      if (result.transition == Transition::kEnterSafeMode) {
        EXPECT_FALSE(was_safe);
      }
    } else {
      EXPECT_EQ(*result.demand_watts, watts);
      last_valid = watts;
      int bridged = health.telemetry_gaps() - gaps;
      ASSERT_TRUE(bridged == 0 || bridged == 1);
      if (bridged == 1) {
        EXPECT_GE(delta, 0.0);
      } else {
        EXPECT_EQ(delta, 0.0);
      }
      if (was_safe) {
        ++clean_in_safe_mode;
      }
      // Safe mode lifts exactly at the recovery streak, never before.
      bool lifts = was_safe &&
                   clean_in_safe_mode == feed.config.health_recovery_samples;
      EXPECT_EQ(result.transition,
                lifts ? Transition::kExitSafeMode : Transition::kNone);
    }
    if (result.transition == Transition::kEnterSafeMode) {
      clean_in_safe_mode = 0;
    }
    EXPECT_EQ(health.health() == ControllerHealth::kSafeMode,
              health.safe_mode().active());
    EXPECT_EQ(health.invalid_samples(), rejected);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

TEST(TelemetryHealthTest, RandomStreamsKeepTheDebitAndRecoveryContracts) {
  odutil::LogLevel saved = odutil::SetLogLevel(odutil::LogLevel::kError);
  odutil::Rng rng(20251021);
  for (int stream = 0; stream < 10000 && !HasFailure(); ++stream) {
    SCOPED_TRACE("stream " + std::to_string(stream));
    CheckRandomStream(rng);
  }
  odutil::SetLogLevel(saved);
}

TEST(TelemetryHealthTest, SameTimestampSampleBridgesNothing) {
  Feed feed;
  feed.Sample(10.0);
  TelemetryHealth::StepResult result =
      feed.health.Step(feed.now, 11.0, kPeriod, feed.smoothed_watts);
  ASSERT_TRUE(result.demand_watts.has_value());
  EXPECT_EQ(feed.health.telemetry_gaps(), 0);
  EXPECT_EQ(feed.health.telemetry_debit_joules(), 0.0);
}

TEST(TelemetryHealthTest, NanThenValidBridgesOneGap) {
  Feed feed;
  feed.smoothed_watts = 8.0;
  feed.Sample(10.0);
  feed.Sample(kNan);  // Not integrated by the monitor: leaves a hole.
  feed.Sample(10.0);
  EXPECT_EQ(feed.health.telemetry_gaps(), 1);
  // 0.2 s since the last integrated sample, minus the period this sample
  // covers itself.
  EXPECT_NEAR(feed.health.telemetry_debit_joules(), 8.0 * kPeriod, 1e-12);
}

TEST(TelemetryHealthTest, ImplausibleThenValidIsNotChargedTwice) {
  Feed feed;
  feed.smoothed_watts = 8.0;
  feed.Sample(10.0);
  feed.Sample(40.0);  // Integrated at face value, then re-counted.
  double recounted = feed.health.telemetry_debit_joules();
  EXPECT_NEAR(recounted, (8.0 - 40.0) * kPeriod, 1e-12);
  feed.Sample(10.0);
  EXPECT_EQ(feed.health.telemetry_gaps(), 0);
  EXPECT_EQ(feed.health.telemetry_debit_joules(), recounted);
}

TEST(TelemetryHealthTest, SilenceOfExactlyTheTimeoutDoesNotTrip) {
  Feed feed;
  feed.Sample(10.0);
  const double timeout = feed.config.telemetry_timeout_periods *
                         feed.monitor.period().seconds();
  odsim::SimTime at_timeout = feed.now + odsim::SimDuration::Seconds(timeout);
  // The microsecond clock gives the silence as exactly the timeout.
  ASSERT_EQ((at_timeout - feed.now).seconds(), timeout);
  EXPECT_FALSE(feed.health.CheckSilence(at_timeout));  // Strict `>`.
  EXPECT_EQ(feed.health.health(), ControllerHealth::kHealthy);
  EXPECT_TRUE(feed.health.CheckSilence(at_timeout + odsim::SimDuration::Millis(1)));
  EXPECT_EQ(feed.health.health(), ControllerHealth::kSafeMode);
}

}  // namespace
}  // namespace odenergy
