#include "src/energy/telemetry_health.h"

#include <algorithm>
#include <cmath>

#include "src/energy/goal_director.h"
#include "src/util/check.h"
#include "src/util/logging.h"

namespace odenergy {

void TelemetryHealth::AttachLearnedEstimator(LearnedEstimator* learned) {
  OD_CHECK(learned != nullptr);
  learned_ = learned;
  if (config_.drift_sentinel.enabled) {
    sentinel_.emplace(config_.drift_sentinel);
  }
}

ControllerHealth TelemetryHealth::health() const {
  // A drift verdict convicted from safe mode's valid samples outlives the
  // safe mode that corroborated it.
  if (safe_mode_.active()) {
    return ControllerHealth::kSafeMode;
  }
  if (drift_.active()) {
    return ControllerHealth::kGaugeDrift;
  }
  return consecutive_invalid_ > 0 || identical_streak_ > 0
             ? ControllerHealth::kSuspect
             : ControllerHealth::kHealthy;
}

double TelemetryHealth::EstimatedResidualJoules(double initial_joules) const {
  // Past the calibration-withheld handoff the learned integral is the
  // consumption estimate: the gauge only bootstrapped the fit.
  if (handoff_done_) {
    double consumed = handoff_measured_joules_ +
                      (learned_->learned_joules() - handoff_learned_joules_);
    return std::max(0.0, initial_joules - consumed - telemetry_debit_joules_);
  }
  // The drift correction (positive when the gauge over-read) is added back.
  return std::max(0.0, initial_joules - monitor_->measured_joules() -
                           telemetry_debit_joules_ + drift_correction_joules_);
}

void TelemetryHealth::EnterSafeMode(odsim::SimTime now, const char* reason) {
  // A drift verdict is subsumed: safe mode distrusts the whole feed, not
  // just its scale.
  ExitDrift(now, "superseded by safe mode");
  safe_mode_.Enter(now);
  recovery_streak_ = 0;
  OD_LOG_WARN(
      "goal director: telemetry %s at t=%.1fs — safe mode: clamping to "
      "lowest fidelity, freezing goal re-planning",
      reason, now.seconds());
}

bool TelemetryHealth::CheckSilence(odsim::SimTime now) {
  if (safe_mode_.active()) {
    return false;
  }
  double silence = (now - last_valid_time_).seconds();
  if (silence > config_.telemetry_timeout_periods * monitor_->period().seconds()) {
    EnterSafeMode(now, "gap (no samples)");
    return true;
  }
  return false;
}

void TelemetryHealth::ClearDriftEvidence() {
  drift_recovery_streak_ = 0;
  diverged_accum_seconds_ = 0.0;
  inband_accum_seconds_ = 0.0;
  suspect_since_.reset();
}

void TelemetryHealth::EnterDrift(odsim::SimTime now) {
  // Retroactive correction for the divergence before the verdict: the
  // window's excess, plus the hold's overhang beyond the window charged at
  // the window's rate (the accumulator stops at the hold, so churn cannot
  // inflate it).
  double excess = sentinel_->WindowExcessJoules();
  if (config_.drift_sentinel.window_seconds > 0.0) {
    double overhang =
        diverged_accum_seconds_ - config_.drift_sentinel.window_seconds;
    if (overhang > 0.0) {
      excess += overhang * excess / config_.drift_sentinel.window_seconds;
    }
  }
  drift_.Enter(now);
  ClearDriftEvidence();
  drift_correction_joules_ += config_.drift_sentinel.reweight * excess;
  OD_LOG_WARN(
      "goal director: gauge drift at t=%.1fs — window gauge %.1f J vs "
      "learned %.1f J (%.0f%% divergence); discounting gauge",
      now.seconds(), sentinel_->WindowGaugeJoules(),
      sentinel_->WindowLearnedJoules(), 100.0 * sentinel_->WindowDivergence());
  sentinel_->ResetWindow();
}

void TelemetryHealth::ExitDrift(odsim::SimTime now, const char* reason) {
  if (!drift_.active()) {
    return;
  }
  drift_.Exit(now);
  ClearDriftEvidence();
  if (sentinel_.has_value()) {
    sentinel_->ResetWindow();
  }
  OD_LOG_INFO("goal director: gauge drift lifted at t=%.1fs (%s)",
              now.seconds(), reason);
}

TelemetryHealth::StepResult TelemetryHealth::Step(odsim::SimTime now,
                                                  double watts, double period,
                                                  double smoothed_watts) {
  bool valid = std::isfinite(watts) && watts >= 0.0 &&
               watts <= config_.max_plausible_watts;
  // Frozen-feed detection: a wedged driver repeats its last reading
  // bit-for-bit, which a noisy physical source never does.  Disabled when
  // stale_sample_limit is 0 (quantized gauges repeat legitimately).
  if (valid && config_.stale_sample_limit > 0) {
    if (last_valid_watts_ == watts) {
      if (++identical_streak_ >= config_.stale_sample_limit) {
        valid = false;
      }
    } else {
      identical_streak_ = 0;
    }
  }

  if (!valid) {
    ++invalid_samples_;
    ++consecutive_invalid_;
    recovery_streak_ = 0;
    // The monitor integrated a finite rejected reading at face value:
    // re-count the interval at the smoothed rate (negative for an
    // over-reading), after which the gap bridge must not cover it again.
    if (std::isfinite(watts)) {
      telemetry_debit_joules_ += (smoothed_watts - watts) * period;
      last_integrated_time_ = now;
    }
    if (!safe_mode_.active() &&
        consecutive_invalid_ >= config_.invalid_sample_limit) {
      EnterSafeMode(now, "invalid readings");
      return {std::nullopt, Transition::kEnterSafeMode};
    }
    return {};  // Invalid readings never touch the predictor.
  }

  // Bridge any gap the monitor could not integrate over (dropped or NaN
  // samples) at the smoothed demand rate.  The last period before this
  // sample is covered by the monitor's own integration of it.
  if (last_valid_watts_.has_value()) {
    double gap = (now - last_integrated_time_).seconds();
    if (gap > 1.5 * period) {
      telemetry_debit_joules_ += smoothed_watts * std::max(0.0, gap - period);
      ++telemetry_gaps_;
    }
  }
  last_valid_watts_ = watts;
  last_valid_time_ = now;
  last_integrated_time_ = now;
  consecutive_invalid_ = 0;

  StepResult result;
  result.demand_watts =
      learned_ == nullptr ? watts : CrossCheck(now, watts, period);
  if (safe_mode_.active() &&
      ++recovery_streak_ >= config_.health_recovery_samples) {
    safe_mode_.Exit(now);
    identical_streak_ = 0;
    OD_LOG_INFO("goal director: telemetry recovered at t=%.1fs — safe mode off",
                now.seconds());
    result.transition = Transition::kExitSafeMode;
  }
  return result;
}

double TelemetryHealth::CrossCheck(odsim::SimTime now, double watts,
                                   double period) {
  const DriftSentinelConfig& drift_config = config_.drift_sentinel;
  // The estimator sees the delivered reading, never the accounting; the
  // guards below are DESIGN §11's.  Training freezes under a drift verdict
  // or safe mode (a model chasing a bad gauge erases the divergence), and
  // for at most the freeze budget once the window turns *suspicious* (half
  // the band, excess side, after the proven-accuracy latch).  Confidence
  // needs the latched convergence and a state mix the model has trained
  // on: an extrapolated mix indicts the model, not the gauge.  (The
  // pre-OnSample read uses the previous interval's excitation.)
  auto excited = [this, &drift_config] {
    return learned_->last_state_excitation_seconds() >=
           drift_config.min_feature_excitation_seconds;
  };
  if (sentinel_.has_value() && sentinel_->WindowJudgeable() &&
      !sentinel_->Diverged()) {
    sentinel_proven_ = true;
  }
  bool suspicious = learned_->converged_once() && excited() &&
                    sentinel_proven_ && sentinel_.has_value() &&
                    sentinel_->WindowExcessJoules() > 0.0 &&
                    sentinel_->WindowDivergence() >
                        0.5 * drift_config.divergence_band;
  suspect_since_ = suspicious ? suspect_since_.value_or(now)
                              : std::optional<odsim::SimTime>();
  bool train = !drift_.active() && !safe_mode_.active();
  if (train && suspicious &&
      (now - *suspect_since_).seconds() <= drift_config.freeze_budget_seconds) {
    train = false;
  }
  double predicted = learned_->OnSample(now, watts, train);
  bool confident = learned_->converged_once() && excited();

  if (config_.learned_primary_when_converged && !handoff_done_ &&
      learned_->converged_once()) {
    handoff_done_ = true;
    handoff_measured_joules_ = monitor_->measured_joules();
    handoff_learned_joules_ = learned_->learned_joules();
    OD_LOG_INFO(
        "goal director: learned model converged at t=%.1fs — residual "
        "estimate handed over (gauge integral %.1f J at handoff)",
        now.seconds(), handoff_measured_joules_);
  }

  // The cross-check runs on every valid sample, safe mode included: the
  // valid troughs of a gauge bouncing through safe mode are the only
  // evidence there is.  The sentinel judges the gauge, not the controller.
  if (!sentinel_.has_value() || handoff_done_) {
    return watts;
  }
  if (drift_.active()) {
    // Per-sample discount: the learned model is the believed rate; the
    // gauge's excess is charged back to the residual as it accrues.
    drift_correction_joules_ +=
        drift_config.reweight * (watts - predicted) * period;
    // Recovery hysteresis: a streak of in-band samples (gauge agreeing
    // with the model again) lifts the verdict.
    double rel = std::abs(watts - predicted) / std::max(predicted, 1e-6);
    if (rel <= drift_config.divergence_band) {
      if (++drift_recovery_streak_ >= drift_config.recovery_samples) {
        ExitDrift(now, "gauge back in band");
      }
    } else {
      drift_recovery_streak_ = 0;
    }
    return predicted;
  }
  sentinel_->AddInterval(now, period, watts * period, predicted * period,
                         confident);
  // Entry hysteresis: out-of-band time must *accumulate* to the hold —
  // longer than the window — before the verdict lands; a judgeable in-band
  // window zeroes it, an unjudgeable one (safe-mode resets, convergence
  // gaps) leaves it standing.  Only excess-side divergence (gauge above
  // model) counts: any fidelity drop cuts real power while the occupancy
  // features keep predicting full-fidelity watts, so a deficit indicts the
  // model's blind spot, and an over-read is the direction that burns the
  // goal.
  if (sentinel_->Diverged() && sentinel_->WindowExcessJoules() > 0.0) {
    diverged_accum_seconds_ += period;
    inband_accum_seconds_ = 0.0;
    if (diverged_accum_seconds_ >= drift_config.entry_hold_seconds) {
      EnterDrift(now);
      return predicted;
    }
  } else if (sentinel_->WindowJudgeable()) {
    diverged_accum_seconds_ = 0.0;
    inband_accum_seconds_ = 0.0;
  } else if (diverged_accum_seconds_ > 0.0) {
    // Freshness horizon: the count ages out unless divergence renews
    // within a window's span of *sampled* time (safe-mode gaps add none).
    inband_accum_seconds_ += period;
    if (inband_accum_seconds_ >= drift_config.window_seconds) {
      diverged_accum_seconds_ = 0.0;
      inband_accum_seconds_ = 0.0;
    }
  }
  return watts;
}

}  // namespace odenergy
