#include "src/energy/learned_estimator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/util/check.h"

namespace odenergy {

LearnedEstimator::LearnedEstimator(odpower::Machine* machine,
                                   odsim::SimTime now,
                                   const odpower::LearnedModelConfig& config)
    : probe_(machine, now), model_(probe_.dim(), config) {}

double LearnedEstimator::OnSample(odsim::SimTime now, double gauge_watts,
                                  bool train) {
  // Energy prediction uses the window's occupancy fractions: the model is
  // linear, so coefficients apply to time-averages of the state
  // indicators just as they do to the indicators themselves.
  double window_seconds = 0.0;
  probe_.DrainWindow(now, &window_seconds, &phi_);
  double predicted = model_.PredictWatts(phi_);
  last_predicted_watts_ = predicted;
  if (window_seconds > 0.0) {
    learned_joules_ += predicted * window_seconds;
  }
  probe_.SnapshotFeatures(&snapshot_);
  uint64_t combination = 0;
  for (size_t i = 1; i < snapshot_.size() && i < 64; ++i) {
    if (snapshot_[i] > 0.5) {
      combination |= uint64_t{1} << i;
    }
  }
  // Consecutive samples usually hold the same combination; the map is
  // consulted only when it changes.  unordered_map element references
  // survive rehashing, so the cached pointer stays valid.
  if (last_record_ == nullptr || combination != last_combination_) {
    last_record_ = &combination_seconds_[combination];
    last_combination_ = combination;
  }
  CombinationRecord& record = *last_record_;
  // Decay on twice the RLS memory (samples-to-seconds via this window),
  // measured on the model's *training* clock: combos refreshed at even a
  // modest duty cycle stay judged, combos the forgetting has flushed drop
  // back below the confidence bar — but a model whose training is frozen
  // (drift verdict, safe mode, suspicion) forgets nothing, so excitation
  // must not rot while the clock is stopped.
  // Skipped when the training clock has not moved since the last visit
  // (the common same-combination case): the factor would be exp(-0) == 1.
  if (window_seconds > 0.0 && record.seconds > 0.0 &&
      trained_seconds_total_ != record.trained_at) {
    double tau = 2.0 * window_seconds /
                 std::max(1e-6, 1.0 - model_.config().forgetting);
    record.seconds *=
        std::exp(-(trained_seconds_total_ - record.trained_at) / tau);
  }
  record.trained_at = trained_seconds_total_;
  if (train && std::isfinite(gauge_watts)) {
    // The gauge reading is a snapshot of machine power at the sampling
    // instant, so training pairs it with the snapshot state indicators —
    // regressing an instantaneous target on window averages attenuates
    // every coefficient for a component that switches within the window.
    model_.Observe(snapshot_, gauge_watts);
    record.seconds += window_seconds;
    trained_seconds_total_ += window_seconds;
    record.trained_at = trained_seconds_total_;
  }
  last_state_excitation_seconds_ = record.seconds;
  if (!convergence_marked_ && model_.converged()) {
    convergence_marked_ = true;
    joules_at_convergence_ = learned_joules_;
  }
  return predicted;
}

std::vector<LearnedEstimator::CoefficientReport> LearnedEstimator::Report()
    const {
  std::vector<CoefficientReport> rows;
  rows.reserve(static_cast<size_t>(probe_.dim()));
  for (int i = 0; i < probe_.dim(); ++i) {
    CoefficientReport row;
    row.feature = probe_.FeatureName(i);
    row.fitted_watts = model_.coefficient(i);
    row.true_watts = probe_.TrueIncrementWatts(i);
    row.excitation_seconds = probe_.FeatureSeconds(i);
    rows.push_back(std::move(row));
  }
  return rows;
}

double LearnedEstimator::CoefficientRecoveryError(
    double min_excitation_seconds, double min_true_watts) const {
  double weighted_error = 0.0;
  double weight = 0.0;
  for (const CoefficientReport& row : Report()) {
    double magnitude = std::abs(row.true_watts);
    if (row.excitation_seconds < min_excitation_seconds ||
        magnitude < min_true_watts) {
      continue;
    }
    double w = row.excitation_seconds * magnitude;
    weighted_error +=
        w * std::abs(row.fitted_watts - row.true_watts) / magnitude;
    weight += w;
  }
  return weight > 0.0 ? weighted_error / weight : 1.0;
}

DriftSentinel::DriftSentinel(const DriftSentinelConfig& config)
    : config_(config) {
  OD_CHECK(config.window_seconds > 0.0);
  OD_CHECK(config.divergence_band > 0.0);
  OD_CHECK(config.reweight >= 0.0 && config.reweight <= 1.0);
}

void DriftSentinel::AddInterval(odsim::SimTime now, double dt_seconds,
                                double gauge_joules, double learned_joules,
                                bool model_confident) {
  if (dt_seconds <= 0.0) {
    return;
  }
  window_.push_back(Interval{now, dt_seconds, gauge_joules, learned_joules,
                             model_confident});
  window_seconds_ += dt_seconds;
  window_gauge_joules_ += gauge_joules;
  window_learned_joules_ += learned_joules;
  if (model_confident) {
    confident_seconds_ += dt_seconds;
    confident_gauge_joules_ += gauge_joules;
    confident_learned_joules_ += learned_joules;
  }
  while (!window_.empty() &&
         window_seconds_ - window_.front().seconds >= config_.window_seconds) {
    const Interval& old = window_.front();
    window_seconds_ -= old.seconds;
    window_gauge_joules_ -= old.gauge_joules;
    window_learned_joules_ -= old.learned_joules;
    if (old.confident) {
      confident_seconds_ -= old.seconds;
      confident_gauge_joules_ -= old.gauge_joules;
      confident_learned_joules_ -= old.learned_joules;
    }
    window_.pop_front();
  }
}

double DriftSentinel::WindowExcessJoules() const {
  return window_gauge_joules_ - window_learned_joules_;
}

double DriftSentinel::WindowDivergence() const {
  // Confident intervals only: extrapolation error on barely-trained state
  // mixes indicts the model, not the gauge, so it is excluded from the
  // evidence rather than folded into it.
  double reference = std::max(confident_learned_joules_, 1e-9);
  return std::abs(confident_gauge_joules_ - confident_learned_joules_) /
         reference;
}

bool DriftSentinel::WindowJudgeable() const {
  // The window spans its configured length, a quorum of it is confident,
  // and the confident intervals integrate enough energy to compare (an
  // unconverged model diverges from everything — its intervals are not
  // evidence).
  return window_seconds_ >= config_.window_seconds &&
         confident_seconds_ >=
             config_.min_confident_fraction * window_seconds_ &&
         confident_learned_joules_ >= config_.min_window_joules &&
         !window_.empty();
}

bool DriftSentinel::Diverged() const {
  return WindowJudgeable() && WindowDivergence() > config_.divergence_band;
}

void DriftSentinel::ResetWindow() {
  window_.clear();
  window_seconds_ = 0.0;
  window_gauge_joules_ = 0.0;
  window_learned_joules_ = 0.0;
  confident_seconds_ = 0.0;
  confident_gauge_joules_ = 0.0;
  confident_learned_joules_ = 0.0;
}

}  // namespace odenergy
