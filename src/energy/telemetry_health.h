// Controller health: how far the goal director trusts its power telemetry.
//
// Every sample is validated (finite, nonnegative, plausible, not frozen)
// before it may touch the demand predictor, and the feed is watched for
// silence.  Sustained corruption trips safe mode — the director clamps
// every application to its cheapest fidelity and freezes re-planning —
// until a streak of valid samples lifts it.  Energy the monitor missed in
// a gap, or integrated from implausible readings, is re-counted at the
// smoothed demand rate (the telemetry debit), so the residual estimate
// survives telemetry faults with bounded error.  With a LearnedEstimator
// attached, the drift sentinel cross-checks the gauge's scale (DESIGN
// §11).  The director feeds every sample to Step(), checks for silence
// once per evaluation, and drives its safe-mode clamp from the
// transitions reported.

#ifndef SRC_ENERGY_TELEMETRY_HEALTH_H_
#define SRC_ENERGY_TELEMETRY_HEALTH_H_

#include <optional>

#include "src/energy/learned_estimator.h"
#include "src/powerscope/power_monitor.h"
#include "src/sim/time.h"

namespace odenergy {

struct GoalDirectorConfig;

// kSuspect while a below-threshold streak of invalid/frozen readings is in
// progress, kSafeMode once corruption tripped the fallback policy,
// kGaugeDrift while the sentinel holds a drift verdict against the gauge
// (the readings are individually plausible — the *scale* is wrong — so the
// controller keeps adapting, on the discounted residual).
enum class ControllerHealth {
  kHealthy,
  kSuspect,
  kSafeMode,
  kGaugeDrift,
};

class TelemetryHealth {
 public:
  // Distinct spans under one verdict (safe mode or gauge drift).
  class Episode {
   public:
    void Enter(odsim::SimTime now) {
      first_entered_ = entries_ == 0 ? now : first_entered_;
      active_ = true;
      ++entries_;
      entered_ = now;
    }
    void Exit(odsim::SimTime now) {
      active_ = false;
      closed_seconds_ += (now - entered_).seconds();
    }
    bool active() const { return active_; }
    int entries() const { return entries_; }
    std::optional<odsim::SimTime> first_entered() const {
      return entries_ > 0 ? std::optional(first_entered_) : std::nullopt;
    }
    // Cumulative seconds up to `now`, open episode included.
    double Seconds(odsim::SimTime now) const {
      return active_ ? closed_seconds_ + (now - entered_).seconds() : closed_seconds_;
    }

   private:
    bool active_ = false;
    int entries_ = 0;
    odsim::SimTime entered_ = odsim::SimTime::Zero();
    double closed_seconds_ = 0.0;
    odsim::SimTime first_entered_ = odsim::SimTime::Zero();
  };

  enum class Transition { kNone, kEnterSafeMode, kExitSafeMode };
  struct StepResult {
    // Watts for the demand predictor — the reading, or the learned
    // prediction under a drift verdict; empty when the reading was rejected.
    std::optional<double> demand_watts;
    Transition transition = Transition::kNone;
  };

  // Reads `config` (owned by the caller, which outlives this) and
  // `monitor`'s sampling period and integral.
  TelemetryHealth(const GoalDirectorConfig& config,
                  const odscope::PowerMonitor* monitor)
      : config_(config), monitor_(monitor) {}

  // Attaches the second estimator and, when drift_sentinel.enabled, arms
  // the sentinel.  The estimator must outlive this.
  void AttachLearnedEstimator(LearnedEstimator* learned);
  // Monitoring begins: the silence watchdog counts from `now` until the
  // first valid sample.
  void Start(odsim::SimTime now) {
    last_valid_time_ = last_valid_watts_.has_value() ? last_valid_time_ : now;
  }

  // Judges one reading.  `period` is the monitor's sampling period (the
  // caller reads it once per sample); `smoothed_watts` is the demand
  // predictor's rate before this sample.
  StepResult Step(odsim::SimTime now, double watts, double period,
                  double smoothed_watts);
  // Silence watchdog: a silent feed produces no samples for Step to
  // reject.  True when the silence just tripped safe mode.
  bool CheckSilence(odsim::SimTime now);

  // Residual energy as the director believes it: initial minus measured,
  // corrected by the telemetry debit and the drift correction (or, past
  // the calibration-withheld handoff, by the learned integral).
  double EstimatedResidualJoules(double initial_joules) const;

  ControllerHealth health() const;
  const Episode& safe_mode() const { return safe_mode_; }
  const Episode& drift() const { return drift_; }
  // Readings rejected as invalid (non-finite, negative, implausible, or
  // frozen past the stale limit).
  int invalid_samples() const { return invalid_samples_; }
  // Telemetry gaps bridged (distinct spans with no valid sample).
  int telemetry_gaps() const { return telemetry_gaps_; }
  // Correction subtracted from the residual estimate for energy the monitor
  // missed (gaps) or miscounted (implausible readings).
  double telemetry_debit_joules() const { return telemetry_debit_joules_; }
  // Energy charged back to the residual estimate for gauge/learned
  // disagreement while drifting (positive when the gauge over-reads).
  double drift_correction_joules() const { return drift_correction_joules_; }
  // The learned model is the primary residual estimator
  // (learned_primary_when_converged, after first convergence).
  bool learned_primary_active() const { return handoff_done_; }

 private:
  // The learned-model cross-check on a valid reading; returns the watts
  // for the demand predictor.
  double CrossCheck(odsim::SimTime now, double watts, double period);
  void EnterSafeMode(odsim::SimTime now, const char* reason);
  void EnterDrift(odsim::SimTime now);
  void ExitDrift(odsim::SimTime now, const char* reason);
  void ClearDriftEvidence();

  const GoalDirectorConfig& config_;
  const odscope::PowerMonitor* monitor_;
  LearnedEstimator* learned_ = nullptr;

  std::optional<double> last_valid_watts_;
  // Last valid sample, or the start of monitoring before the first.
  odsim::SimTime last_valid_time_ = odsim::SimTime::Zero();
  // Last sample the monitor integrated: valid, or finite and re-counted.
  odsim::SimTime last_integrated_time_ = odsim::SimTime::Zero();
  double telemetry_debit_joules_ = 0.0;
  int consecutive_invalid_ = 0;
  int identical_streak_ = 0;
  int recovery_streak_ = 0;
  int invalid_samples_ = 0;
  int telemetry_gaps_ = 0;
  int drift_recovery_streak_ = 0;
  // Latched once the sentinel has seen a judgeable *in-band* window: until
  // the model has matched a healthy gauge, suspicion must not freeze a
  // still-converging fit (that ratchets honest error into a verdict).
  bool sentinel_proven_ = false;
  bool handoff_done_ = false;
  Episode safe_mode_;
  Episode drift_;

  std::optional<DriftSentinel> sentinel_;
  // Start of the current continuous suspicion, if any.
  std::optional<odsim::SimTime> suspect_since_;
  // Out-of-band seconds since the last judgeable in-band window; survives
  // safe-mode churn on purpose (DESIGN §11's accumulated entry hold).
  double diverged_accum_seconds_ = 0.0;
  // Sampled seconds since the last out-of-band window (freshness horizon).
  double inband_accum_seconds_ = 0.0;
  double drift_correction_joules_ = 0.0;
  // Calibration-withheld handoff: the gauge integral at the moment the
  // learned model became primary, and the learned integral then.
  double handoff_measured_joules_ = 0.0;
  double handoff_learned_joules_ = 0.0;
};

}  // namespace odenergy

#endif  // SRC_ENERGY_TELEMETRY_HEALTH_H_
