// Goal-directed energy adaptation (Section 5).
//
// The user specifies how long the battery must last.  Twice a second the
// director compares residual energy (tracked from on-line power samples
// against a known initial value) with predicted future demand (smoothed
// power times time remaining).  When demand exceeds supply it degrades the
// lowest-priority application one fidelity step; when supply exceeds demand
// by the hysteresis margin it upgrades the highest-priority application,
// at most once per 15 seconds.  The run ends when the goal is reached or
// the supply is exhausted.
//
// Whether the telemetry can be trusted at all is TelemetryHealth's job.

#ifndef SRC_ENERGY_GOAL_DIRECTOR_H_
#define SRC_ENERGY_GOAL_DIRECTOR_H_

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/energy/hysteresis.h"
#include "src/energy/learned_estimator.h"
#include "src/energy/predictor.h"
#include "src/energy/telemetry_health.h"
#include "src/odyssey/viceroy.h"
#include "src/power/supply.h"
#include "src/powerscope/power_monitor.h"

namespace odenergy {

struct GoalDirectorConfig {
  // How often supply and demand are compared (the paper: twice a second).
  odsim::SimDuration evaluation_period = odsim::SimDuration::Millis(500);
  // Smoothing half-life as a fraction of time remaining (Section 5.3's
  // sensitivity analysis chose 10%).
  double half_life_fraction = 0.10;
  HysteresisConfig hysteresis;
  // Minimum spacing between degradations, giving the smoothed estimate time
  // to reflect one step before taking the next.
  odsim::SimDuration degrade_interval = odsim::SimDuration::Seconds(5);
  // Safety margin on the measured residual: adaptation decisions treat the
  // supply as (1 - f) of the estimate.  Zero for the prototype's accurate
  // multimeter; a coarse gas gauge warrants a few percent.
  double residual_safety_fraction = 0.0;
  // Record a supply/demand timeline point at every evaluation (Figure 19).
  bool record_timeline = true;
  // An infeasible goal (Section 5.1.1: demand exceeds supply even with
  // every application at lowest fidelity) is reported once the state has
  // persisted for a full smoothing half-life (so the estimate reflects
  // lowest-fidelity operation, not the pre-degradation transient), but at
  // least this long — early, not at exhaustion.
  double infeasibility_min_seconds = 10.0;
  // ...and only when the deficit is material: a feasible run skirts the
  // supply/demand boundary by design, so small transients must not alert.
  double infeasibility_deficit_fraction = 0.05;

  // -- Controller health (read by TelemetryHealth) --------------------------

  // A power reading is invalid when non-finite, negative, or above this
  // bound; no state of the modeled hardware draws anywhere near it, so a
  // larger value can only be a telemetry fault (e.g. gauge drift).
  double max_plausible_watts = 15.0;
  // Consecutive invalid readings that trip safe mode.
  int invalid_sample_limit = 3;
  // A telemetry gap — no valid sample for this many sampling periods —
  // trips safe mode at the next evaluation.
  double telemetry_timeout_periods = 4.0;
  // Consecutive bit-identical readings before the feed is declared frozen
  // (a wedged driver repeating its last value).  0 disables: quantized
  // gauges such as SmartBattery repeat readings legitimately, so only
  // enable this for a noisy continuous source like the multimeter.
  int stale_sample_limit = 0;
  // Consecutive valid readings before safe mode lifts (recovery
  // hysteresis, mirroring the viceroy's link-outage clamp).
  int health_recovery_samples = 8;

  // The gauge-drift sentinel, consulted only when a LearnedEstimator is
  // attached and `drift_sentinel.enabled` (default off).
  DriftSentinelConfig drift_sentinel;
  // Calibration-withheld operation: once the learned model converges, hand
  // the residual estimate over to it (consumed energy past the handoff is
  // the learned integral), for hardware whose gauge is too coarse to
  // integrate well or whose calibration table was never measured.
  bool learned_primary_when_converged = false;
};

struct TimelinePoint {
  odsim::SimTime time;
  double residual_joules;
  double demand_joules;
  ControllerHealth health = ControllerHealth::kHealthy;
};

struct FidelityChange {
  odsim::SimTime time;
  int level;
};

enum class GoalOutcome {
  kRunning,
  kGoalMet,       // The supply lasted until the specified time.
  kExhausted,     // Residual energy reached zero before the goal.
};

class GoalDirector {
 public:
  // `monitor` is any power source implementing PowerMonitor: the
  // prototype's on-line multimeter or a SmartBattery gas gauge.
  GoalDirector(odyssey::Viceroy* viceroy, odpower::EnergySupply* supply,
               odscope::PowerMonitor* monitor, odsim::SimTime goal,
               const GoalDirectorConfig& config = GoalDirectorConfig{});

  GoalDirector(const GoalDirector&) = delete;
  GoalDirector& operator=(const GoalDirector&) = delete;

  // Begins monitoring and adaptation.  Stops the simulator when the run
  // completes (goal met or supply exhausted) if `stop_sim_on_completion`.
  void Start(bool stop_sim_on_completion = true);
  void Stop();

  // Revises the goal mid-run (the user re-estimating battery needs).
  // Clears any pending infeasibility report: the user has respecified.
  void ExtendGoal(odsim::SimTime new_goal);

  // -- Infeasibility (Section 5.1.1) ----------------------------------------

  // "An infeasible duration is one so large that the available energy is
  // inadequate even if all applications run at lowest fidelity."  When the
  // director detects this it alerts the user as early as possible.
  using InfeasibilityFn = std::function<void(odsim::SimTime, double deficit_joules)>;
  void set_infeasibility_callback(InfeasibilityFn callback) {
    infeasibility_callback_ = std::move(callback);
  }

  // Time at which infeasibility was first reported, if it was.
  std::optional<odsim::SimTime> infeasibility_detected() const {
    return infeasibility_detected_;
  }

  odsim::SimTime goal() const { return goal_; }
  GoalOutcome outcome() const { return outcome_; }

  // Attaches the second estimator (and, when config.drift_sentinel.enabled,
  // arms the sentinel).  Must be called before Start(); the estimator must
  // outlive the director.
  void AttachLearnedEstimator(LearnedEstimator* learned);

  const TelemetryHealth& telemetry() const { return telemetry_; }

  // Residual energy as the director believes it (TelemetryHealth's
  // corrected estimate).
  double EstimatedResidualJoules() const {
    return telemetry_.EstimatedResidualJoules(supply_->initial_joules());
  }

  // Residual energy, ground truth.
  double TrueResidualJoules(odsim::SimTime now) { return supply_->ResidualJoules(now); }

  const std::vector<TimelinePoint>& timeline() const { return timeline_; }
  const std::vector<FidelityChange>& FidelityLog(
      const odyssey::AdaptiveApplication* app) const;

  const DemandPredictor& predictor() const { return predictor_; }

 private:
  void OnPowerSample(odsim::SimTime now, double watts);
  void Evaluate();
  void Complete(GoalOutcome outcome);
  // Engages or releases the safe-mode clamp, logging each level issued.
  void ApplySafeMode(TelemetryHealth::Transition transition, odsim::SimTime now);
  void LogFidelityChange(odyssey::AdaptiveApplication* app, int level,
                         odsim::SimTime now) {
    fidelity_log_[app].push_back(FidelityChange{now, level});
  }

  odyssey::AdaptiveApplication* PickDegradeTarget() const;
  odyssey::AdaptiveApplication* PickUpgradeTarget() const;

  odyssey::Viceroy* viceroy_;
  odpower::EnergySupply* supply_;
  odscope::PowerMonitor* monitor_;
  odsim::SimTime goal_;
  GoalDirectorConfig config_;

  DemandPredictor predictor_;
  HysteresisPolicy hysteresis_;

  bool running_ = false;
  bool stop_sim_on_completion_ = true;
  bool has_degraded_ = false;
  GoalOutcome outcome_ = GoalOutcome::kRunning;
  odsim::EventHandle next_eval_;
  odsim::SimTime last_degrade_ = odsim::SimTime::Zero();

  TelemetryHealth telemetry_;
  odyssey::FidelityClamp safe_clamp_;

  std::vector<TimelinePoint> timeline_;
  std::unordered_map<const odyssey::AdaptiveApplication*, std::vector<FidelityChange>>
      fidelity_log_;

  std::optional<odsim::SimTime> infeasible_since_;
  std::optional<odsim::SimTime> infeasibility_detected_;
  InfeasibilityFn infeasibility_callback_;
};

}  // namespace odenergy

#endif  // SRC_ENERGY_GOAL_DIRECTOR_H_
