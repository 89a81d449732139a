// Learned-model energy estimation and the gauge-drift sentinel.
//
// LearnedEstimator glues the Sesame-style pieces together for the goal
// director: a UtilizationProbe supplies per-component activity features, an
// odpower::LearnedModel fits them against the *delivered* gauge stream
// (after TelemetryFaults corruption — the estimator must mirror what the
// controller can actually observe, never the analytic accounting), and the
// predicted power is integrated into an independent energy estimate.
//
// DriftSentinel is the cross-check.  PR 5's health validation rejects
// readings that are non-finite, negative, or implausibly large; a gauge
// whose scale drifts by 1.2x stays under every one of those bars and
// silently biases the residual estimate.  The sentinel compares the energy
// the gauge integrated over a sliding window against the energy the learned
// model predicts for the same window; sustained relative divergence beyond
// a configurable band — while the model is confident — is a drift verdict.
// Recovery is hysteretic: a streak of consecutive in-band samples must
// accumulate before the verdict lifts, mirroring the safe-mode recovery
// streak.

#ifndef SRC_ENERGY_LEARNED_ESTIMATOR_H_
#define SRC_ENERGY_LEARNED_ESTIMATOR_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/power/learned_model.h"
#include "src/power/utilization.h"
#include "src/sim/time.h"

namespace odenergy {

class LearnedEstimator {
 public:
  // Attaches a UtilizationProbe to `machine` at `now` (construct once the
  // hardware has settled; the probe's baselines are the resting states).
  LearnedEstimator(odpower::Machine* machine, odsim::SimTime now,
                   const odpower::LearnedModelConfig& config =
                       odpower::LearnedModelConfig{});

  LearnedEstimator(const LearnedEstimator&) = delete;
  LearnedEstimator& operator=(const LearnedEstimator&) = delete;

  // Consumes one delivered gauge sample.  Drains the utilization window
  // ending at `now`, predicts its power from the current fit (before
  // training — the prequential order the drift comparison needs),
  // integrates the prediction into learned_joules(), and, when `train`,
  // folds the observation into the model.  Returns the predicted watts for
  // the drained window.  The caller passes train=false while the gauge is
  // under a drift verdict or the controller is in safe mode: a model that
  // chases a drifting gauge would erase the very divergence that exposes
  // it.
  double OnSample(odsim::SimTime now, double gauge_watts, bool train);

  // Energy integrated from model predictions since construction.  Early
  // windows (before the fit converges) are integrated too; consumers that
  // need a trustworthy span difference against JoulesAtConvergence().
  double learned_joules() const { return learned_joules_; }
  // learned_joules() captured the first time the model reported
  // convergence; 0 until then.
  double joules_at_convergence() const { return joules_at_convergence_; }
  // Latched: the model converged at some point.  This — not the live
  // converged() bit — is what drift detection gates on: a drifting gauge
  // inflates the model's prediction error and revokes live convergence,
  // which is the symptom, not a reason to stand down.
  bool converged_once() const { return convergence_marked_; }
  double last_predicted_watts() const { return last_predicted_watts_; }
  // Recency-weighted *trained* seconds of the state combination the
  // machine held at the last OnSample().  Tracked per combination, not per
  // feature: a collinear fit predicts accurately on the mixes it has
  // trained on and can extrapolate wildly on a novel mix of individually
  // well-excited states.  Decayed on the model's own forgetting timescale:
  // a combination the RLS has not been refreshed on lately is one it has
  // forgotten, however long it trained on it once.
  double last_state_excitation_seconds() const {
    return last_state_excitation_seconds_;
  }

  const odpower::LearnedModel& model() const { return model_; }
  odpower::UtilizationProbe& probe() { return probe_; }

  // -- Evaluation report ------------------------------------------------------

  // Fitted coefficient vs. calibration-table truth, per feature.  Truth
  // comes from UtilizationProbe's evaluation-only table access; the
  // estimation path never reads it.
  struct CoefficientReport {
    std::string feature;
    double fitted_watts = 0.0;
    double true_watts = 0.0;
    double excitation_seconds = 0.0;
  };
  std::vector<CoefficientReport> Report() const;

  // Excitation-weighted mean relative coefficient error against the table,
  // over features excited at least `min_excitation_seconds` and whose true
  // magnitude is at least `min_true_watts` (weakly excited or near-zero
  // coefficients are not meaningfully recoverable).  Returns 1.0 when no
  // feature qualifies.
  double CoefficientRecoveryError(double min_excitation_seconds,
                                  double min_true_watts) const;

 private:
  odpower::UtilizationProbe probe_;
  odpower::LearnedModel model_;
  // Per-sample feature buffers, reused so OnSample allocates nothing.
  std::vector<double> phi_;
  std::vector<double> snapshot_;
  double learned_joules_ = 0.0;
  double joules_at_convergence_ = 0.0;
  bool convergence_marked_ = false;
  double last_predicted_watts_ = 0.0;
  // Recency-decayed trained seconds per active-state combination (bitmask
  // over features).  `trained_at` is the value of trained_seconds_total_
  // when the record was last refreshed: decay advances on the model's own
  // training clock, not wall time, because RLS forgetting only moves when
  // Observe() runs — a frozen model forgets nothing, so its excitation
  // must not rot while training is suspended.
  struct CombinationRecord {
    double seconds = 0.0;
    double trained_at = 0.0;
  };
  std::unordered_map<uint64_t, CombinationRecord> combination_seconds_;
  // The record of the last sample's combination, and its key.
  CombinationRecord* last_record_ = nullptr;
  uint64_t last_combination_ = 0;
  double trained_seconds_total_ = 0.0;
  double last_state_excitation_seconds_ = 0.0;
};

struct DriftSentinelConfig {
  bool enabled = false;
  // Sliding comparison window.  Long enough to average over workload
  // transitions, short enough that detection latency stays useful.
  double window_seconds = 20.0;
  // Relative divergence |gauge - learned| / learned tolerated before a
  // drift verdict.  The converged model tracks a healthy gauge to a few
  // percent; a 1.2x scale error diverges by ~20%.
  double divergence_band = 0.10;
  // Windows integrating less than this are too small to judge.
  double min_window_joules = 5.0;
  // A verdict requires this much *accumulated* out-of-band time, cleared
  // whenever a judgeable window comes back in band.  Kept longer than
  // window_seconds on purpose: the error lump a workload transition
  // injects (the model lags the new mix for a few samples) leaves the
  // sliding window after window_seconds and the in-band window that
  // follows zeroes the count, so only a divergence that keeps renewing
  // itself — a real scale error — reaches the hold.  Accumulation (not a
  // continuous streak) matters under churn: a gauge bad enough to also
  // trip the plausibility bars bounces the controller through safe mode,
  // and every safe-mode reset would restart a continuous clock forever.
  double entry_hold_seconds = 25.0;
  // The pre-verdict training freeze (armed at half the band) expires
  // after this much continuous suspicion.  A real drift convicts well
  // inside the budget; a workload mix the model simply has not learned
  // yet must eventually be learned — an unbounded freeze ratchets honest
  // prediction error into a false drift verdict.
  double freeze_budget_seconds = 60.0;
  // Intervals whose active-state combination the model has trained on for
  // less than this do not count as confident evidence: when the model has
  // barely seen a mix of states, its extrapolation — not the gauge — is
  // the suspect.  A gauge drift needs no state change at all to show up,
  // so gating on excitation costs detection nothing.
  double min_feature_excitation_seconds = 20.0;
  // A judgeable window needs at least this fraction of its span covered
  // by confident intervals.  The divergence verdict is computed over the
  // confident intervals *only* — an interval on a barely-trained state
  // mix indicts the model, not the gauge, so it is excluded from the
  // evidence instead of voiding the whole window: a real scale error
  // shows up identically on every mix, so the confident subset still
  // sees it, while extrapolation error lives exactly in the excluded
  // intervals.
  double min_confident_fraction = 0.5;
  // Consecutive in-band samples before a drift verdict lifts.
  int recovery_samples = 50;
  // Fraction of the gauge/learned disagreement charged back to the
  // residual estimate while drifting: 1.0 trusts the learned estimate
  // fully for the divergent energy.
  double reweight = 1.0;
};

class DriftSentinel {
 public:
  explicit DriftSentinel(const DriftSentinelConfig& config);

  // Feeds one sample interval: `gauge_joules` as integrated from the
  // delivered reading, `learned_joules` as predicted by the model, over
  // `dt_seconds` ending at `now`.  `model_confident` gates verdicts — an
  // unconverged model diverges from everything.
  void AddInterval(odsim::SimTime now, double dt_seconds, double gauge_joules,
                   double learned_joules, bool model_confident);

  // Current window divergence verdict: true when the window is judgeable
  // and out of band.
  bool Diverged() const;
  // The window spans its configured length, a quorum of it is covered by
  // confident intervals, and those intervals integrate enough energy to
  // compare.  A judgeable in-band window is positive evidence of gauge
  // health; an unjudgeable one says nothing either way.
  bool WindowJudgeable() const;
  // Signed gauge-minus-learned energy over the current window (all
  // intervals — the correction charge-back wants the whole span, since a
  // real drift biases the unconfident intervals too).
  double WindowExcessJoules() const;
  double WindowGaugeJoules() const { return window_gauge_joules_; }
  double WindowLearnedJoules() const { return window_learned_joules_; }
  // Relative divergence over the confident intervals only.
  double WindowDivergence() const;

  // Drops the window (on drift entry and exit, including the exit a
  // safe-mode entry forces, so a stale window cannot double-charge a
  // correction or re-trigger instantly).
  void ResetWindow();

 private:
  struct Interval {
    odsim::SimTime end;
    double seconds = 0.0;
    double gauge_joules = 0.0;
    double learned_joules = 0.0;
    bool confident = false;
  };

  const DriftSentinelConfig config_;
  std::deque<Interval> window_;
  double window_seconds_ = 0.0;
  double window_gauge_joules_ = 0.0;
  double window_learned_joules_ = 0.0;
  double confident_seconds_ = 0.0;
  double confident_gauge_joules_ = 0.0;
  double confident_learned_joules_ = 0.0;
};

}  // namespace odenergy

#endif  // SRC_ENERGY_LEARNED_ESTIMATOR_H_
