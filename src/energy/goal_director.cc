#include "src/energy/goal_director.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/logging.h"

namespace odenergy {

GoalDirector::GoalDirector(odyssey::Viceroy* viceroy, odpower::EnergySupply* supply,
                           odscope::PowerMonitor* monitor, odsim::SimTime goal,
                           const GoalDirectorConfig& config)
    : viceroy_(viceroy),
      supply_(supply),
      monitor_(monitor),
      goal_(goal),
      config_(config),
      predictor_(config.half_life_fraction),
      hysteresis_(config.hysteresis),
      telemetry_(config_, monitor),
      safe_clamp_(viceroy) {
  OD_CHECK(viceroy != nullptr);
  OD_CHECK(supply != nullptr);
  OD_CHECK(monitor != nullptr);
}

void GoalDirector::Start(bool stop_sim_on_completion) {
  OD_CHECK(!running_);
  running_ = true;
  stop_sim_on_completion_ = stop_sim_on_completion;
  outcome_ = GoalOutcome::kRunning;
  telemetry_.Start(viceroy_->sim()->Now());

  monitor_->set_callback([this](odsim::SimTime now, double watts) {
    OnPowerSample(now, watts);
  });
  monitor_->Start();
  next_eval_ = viceroy_->sim()->Schedule(config_.evaluation_period,
                                         [this] { Evaluate(); });
}

void GoalDirector::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  next_eval_.Cancel();
  monitor_->Stop();
}

void GoalDirector::ExtendGoal(odsim::SimTime new_goal) {
  OD_CHECK(new_goal > viceroy_->sim()->Now());
  goal_ = new_goal;
  // The user has respecified; re-evaluate feasibility from scratch.
  infeasible_since_.reset();
  infeasibility_detected_.reset();
}

void GoalDirector::AttachLearnedEstimator(LearnedEstimator* learned) {
  OD_CHECK(!running_);
  telemetry_.AttachLearnedEstimator(learned);
}

const std::vector<FidelityChange>& GoalDirector::FidelityLog(
    const odyssey::AdaptiveApplication* app) const {
  static const std::vector<FidelityChange> kEmpty;
  auto it = fidelity_log_.find(app);
  return it == fidelity_log_.end() ? kEmpty : it->second;
}

void GoalDirector::ApplySafeMode(TelemetryHealth::Transition transition,
                                 odsim::SimTime now) {
  auto log = [this, now](odyssey::AdaptiveApplication* app, int level) {
    LogFidelityChange(app, level, now);
  };
  if (transition == TelemetryHealth::Transition::kEnterSafeMode) {
    safe_clamp_.Engage(log);
  } else if (transition == TelemetryHealth::Transition::kExitSafeMode) {
    safe_clamp_.Release(log);
  }
}

void GoalDirector::OnPowerSample(odsim::SimTime now, double watts) {
  double period = monitor_->period().seconds();
  TelemetryHealth::StepResult step =
      telemetry_.Step(now, watts, period, predictor_.smoothed_watts());
  if (step.demand_watts.has_value()) {
    double remaining = (goal_ - now).seconds();
    predictor_.AddSample(*step.demand_watts, period, std::max(0.0, remaining));
  }
  ApplySafeMode(step.transition, now);
}

odyssey::AdaptiveApplication* GoalDirector::PickDegradeTarget() const {
  odyssey::AdaptiveApplication* best = nullptr;
  for (odyssey::AdaptiveApplication* app : viceroy_->applications()) {
    if (app->AtLowestFidelity()) {
      continue;
    }
    if (best == nullptr || app->priority() < best->priority()) {
      best = app;
    }
  }
  return best;
}

odyssey::AdaptiveApplication* GoalDirector::PickUpgradeTarget() const {
  odyssey::AdaptiveApplication* best = nullptr;
  for (odyssey::AdaptiveApplication* app : viceroy_->applications()) {
    if (app->AtHighestFidelity()) {
      continue;
    }
    if (best == nullptr || app->priority() > best->priority()) {
      best = app;
    }
  }
  return best;
}

void GoalDirector::Evaluate() {
  if (!running_) {
    return;
  }
  odsim::SimTime now = viceroy_->sim()->Now();

  double residual_true = supply_->ResidualJoules(now);
  if (residual_true <= 0.0) {
    Complete(GoalOutcome::kExhausted);
    return;
  }
  if (now >= goal_) {
    Complete(GoalOutcome::kGoalMet);
    return;
  }

  if (telemetry_.CheckSilence(now)) {
    ApplySafeMode(TelemetryHealth::Transition::kEnterSafeMode, now);
  }
  ControllerHealth health = telemetry_.health();

  double residual =
      EstimatedResidualJoules() * (1.0 - config_.residual_safety_fraction);
  double remaining = (goal_ - now).seconds();
  double demand = predictor_.PredictedDemandJoules(remaining);

  if (config_.record_timeline) {
    timeline_.push_back(TimelinePoint{now, residual, demand, health});
  }

  // In safe mode goal re-planning is frozen: fidelity is already clamped to
  // the cheapest levels, and adaptation decisions computed from corrupted
  // telemetry would be noise.  Completion checks above still run — they
  // use the true supply, not telemetry.
  AdaptAction action =
      health == ControllerHealth::kSafeMode
          ? AdaptAction::kNone
          : hysteresis_.Decide(demand, residual, supply_->initial_joules(), now);
  if (action == AdaptAction::kDegrade) {
    bool allowed = !has_degraded_ || now - last_degrade_ >= config_.degrade_interval;
    if (odyssey::AdaptiveApplication* app = allowed ? PickDegradeTarget() : nullptr) {
      int level = app->current_fidelity() - 1;
      viceroy_->IssueUpcall(app, level);
      LogFidelityChange(app, level, now);
      last_degrade_ = now;
      has_degraded_ = true;
      infeasible_since_.reset();
    } else if (PickDegradeTarget() == nullptr &&
               demand > residual * (1.0 + config_.infeasibility_deficit_fraction)) {
      // Demand materially exceeds supply with everything already at lowest
      // fidelity: the goal may be infeasible.  Alert once this has persisted
      // long enough for the smoothed estimate to reflect lowest-fidelity
      // operation (one half-life), rather than the pre-degradation transient.
      if (!infeasible_since_.has_value()) {
        infeasible_since_ = now;
      }
      double persistence = (now - *infeasible_since_).seconds();
      double required = std::max(config_.infeasibility_min_seconds,
                                 config_.half_life_fraction * remaining);
      if (persistence >= required && !infeasibility_detected_.has_value()) {
        infeasibility_detected_ = now;
        OD_LOG_WARN(
            "goal director: goal infeasible at t=%.1fs — demand %.0f J exceeds "
            "residual %.0f J at lowest fidelity",
            now.seconds(), demand, residual);
        if (infeasibility_callback_) {
          infeasibility_callback_(now, demand - residual);
        }
      }
    }
  } else if (action == AdaptAction::kUpgrade) {
    infeasible_since_.reset();
    if (odyssey::AdaptiveApplication* app = PickUpgradeTarget()) {
      int level = app->current_fidelity() + 1;
      viceroy_->IssueUpcall(app, level);
      LogFidelityChange(app, level, now);
      hysteresis_.NoteUpgrade(now);
    }
  } else {
    infeasible_since_.reset();
  }

  next_eval_ = viceroy_->sim()->Schedule(config_.evaluation_period,
                                         [this] { Evaluate(); });
}

void GoalDirector::Complete(GoalOutcome outcome) {
  outcome_ = outcome;
  OD_LOG_INFO("goal director: %s at t=%.1fs, residual=%.1f J",
              outcome == GoalOutcome::kGoalMet ? "goal met" : "supply exhausted",
              viceroy_->sim()->Now().seconds(),
              supply_->ResidualJoules(viceroy_->sim()->Now()));
  Stop();
  if (stop_sim_on_completion_) {
    viceroy_->sim()->Stop();
  }
}

}  // namespace odenergy
