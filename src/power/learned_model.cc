#include "src/power/learned_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/util/check.h"

namespace odpower {

namespace {

// Per-sample EWMA weight that halves a sample's influence after
// `half_life` samples.
double EwmaAlpha(double half_life) {
  return 1.0 - std::pow(0.5, 1.0 / std::max(1.0, half_life));
}

// Bit 63 is set iff `x` is inf or NaN: the exponent field plus one carries
// out of it only when the field is all ones.  Integer-only and branch-free,
// so OR-folding it into a loop leaves the loop vectorizable.
uint64_t NonFiniteBit(double x) {
  return (std::bit_cast<uint64_t>(x) & 0x7ff0000000000000u) +
         0x0010000000000000u;
}

bool AnyNonFinite(uint64_t folded) { return (folded >> 63) != 0; }

// acc[i] += row[i] * f over [0, n).
void AddScaledRow(double* __restrict acc, const double* __restrict row,
                  double f, int n) {
  for (int i = 0; i < n; ++i) {
    acc[i] += row[i] * f;
  }
}

// out[i] = in[i] / d over [0, n); returns the folded NonFiniteBit of out.
uint64_t DivideAll(double* __restrict out, const double* __restrict in,
                   double d, int n) {
  uint64_t non_finite = 0;
  for (int i = 0; i < n; ++i) {
    out[i] = in[i] / d;
    non_finite |= NonFiniteBit(out[i]);
  }
  return non_finite;
}

// Row i of the fused update and symmetrization over columns [begin, end):
// the mean of P'(i, j) = (P(i, j) - k_i (P phi)_j) / lambda and
// P'(j, i) = (P(i, j) - k_j (P phi)_i) / lambda, which needs P symmetric
// on entry.  Returns the folded NonFiniteBit of the new entries.
uint64_t UpdateUpperRow(double* __restrict row, const double* __restrict gain,
                        const double* __restrict pphi, double gain_i,
                        double pphi_i, double lambda, int begin, int end) {
  uint64_t non_finite = 0;
  for (int j = begin; j < end; ++j) {
    double upper = (row[j] - gain_i * pphi[j]) / lambda;
    double lower = (row[j] - gain[j] * pphi_i) / lambda;
    row[j] = 0.5 * (upper + lower);
    non_finite |= NonFiniteBit(row[j]);
  }
  return non_finite;
}

}  // namespace

LearnedModel::LearnedModel(int dim, const LearnedModelConfig& config)
    : dim_(dim),
      config_(config),
      error_alpha_(EwmaAlpha(config.error_half_life_samples)) {
  OD_CHECK(dim > 0);
  OD_CHECK(config.forgetting > 0.0 && config.forgetting <= 1.0);
  OD_CHECK(config.initial_variance > 0.0);
  OD_CHECK(config.max_coefficient_watts > config.min_coefficient_watts);
  const size_t n = static_cast<size_t>(dim);
  theta_.assign(n, 0.0);
  p_.assign(n * n, 0.0);
  gain_.assign(n, 0.0);
  pphi_.assign(n, 0.0);
  nonzero_feature_.assign(n, 0);
  position_.resize(n);
  order_.resize(n);
  for (int i = 0; i < dim; ++i) {
    position_[static_cast<size_t>(i)] = i;
    order_[static_cast<size_t>(i)] = i;
    p_[At(i, i)] = config.initial_variance;
  }
}

double LearnedModel::PredictWatts(const std::vector<double>& phi) const {
  OD_CHECK(static_cast<int>(phi.size()) == dim_);
  double watts = 0.0;
  for (int i = 0; i < dim_; ++i) {
    watts += theta_[static_cast<size_t>(i)] * phi[static_cast<size_t>(i)];
  }
  return std::max(0.0, watts);
}

void LearnedModel::FoldPredictionError(double measured_watts,
                                       double predicted) {
  // One-step (prequential) prediction error, before this observation is
  // folded in: this is the honest out-of-sample error the confidence
  // signal — and, upstream, the drift sentinel — should see.
  double abs_error = std::abs(measured_watts - predicted);
  if (!ewma_primed_) {
    error_ewma_ = abs_error;
    level_ewma_ = std::abs(measured_watts);
    ewma_primed_ = true;
  } else {
    error_ewma_ += error_alpha_ * (abs_error - error_ewma_);
    level_ewma_ += error_alpha_ * (std::abs(measured_watts) - level_ewma_);
  }
}

void LearnedModel::Observe(const std::vector<double>& phi,
                           double measured_watts) {
  OD_CHECK(static_cast<int>(phi.size()) == dim_);
  // One branch-free pass over phi (indicator patterns do not predict well):
  // the input check, the features nonzero for the first time, phi's nonzero
  // terms compacted in ascending feature order, and the prediction.  The
  // prediction takes every term; with theta finite a zero term adds an
  // exact +-0 to a sum that is never -0, so that is also its sparse sum.
  uint64_t non_finite = NonFiniteBit(measured_watts);
  bool admit = false;
  int nonzero = 0;
  double predicted = 0.0;
  for (int k = 0; k < dim_; ++k) {
    const double f = phi[static_cast<size_t>(k)];
    non_finite |= NonFiniteBit(f);
    admit |= (f != 0.0) & (position_[static_cast<size_t>(k)] >= touched_);
    nonzero_feature_[static_cast<size_t>(nonzero)] = k;
    nonzero += f != 0.0 ? 1 : 0;
    predicted += theta_[static_cast<size_t>(k)] * f;
  }
  if (AnyNonFinite(non_finite)) {
    ++skipped_updates_;
    return;
  }
  if (full_form_) {
    ObserveFull(phi, measured_watts);
    return;
  }
  for (int m = 0; admit && m < nonzero; ++m) {
    const int k = nonzero_feature_[static_cast<size_t>(m)];
    if (position_[static_cast<size_t>(k)] >= touched_) {
      Admit(k);
    }
  }

  // P phi over the touched block; it is +0 for inert features.  P is
  // exactly symmetric, so column q is row q and each term is a contiguous
  // row, while every element still sums in ascending feature order.
  const int n = touched_;
  double* pphi = pphi_.data();
  std::fill(pphi, pphi + n, 0.0);
  for (int m = 0; m < nonzero; ++m) {
    const size_t k = static_cast<size_t>(nonzero_feature_[static_cast<size_t>(m)]);
    AddScaledRow(pphi, p_.data() + At(position_[k], 0), phi[k], n);
  }
  double denom = config_.forgetting;
  for (int m = 0; m < nonzero; ++m) {
    const size_t k = static_cast<size_t>(nonzero_feature_[static_cast<size_t>(m)]);
    denom += pphi[position_[k]] * phi[k];
  }
  double innovation = measured_watts - predicted;
  non_finite = NonFiniteBit(predicted) | NonFiniteBit(innovation) |
               NonFiniteBit(denom);
  for (int i = 0; i < n; ++i) {
    non_finite |= NonFiniteBit(pphi[i]);
  }
  double* gain = gain_.data();
  const double inert_gain = 0.0 / denom;
  if (!AnyNonFinite(non_finite) && denom >= config_.min_denominator) {
    non_finite |= DivideAll(gain, pphi, denom, n) | NonFiniteBit(inert_gain);
  }
  if (AnyNonFinite(non_finite)) {
    // Nothing is committed yet: rerun this update in the full form.
    SwitchToFullForm();
    ObserveFull(phi, measured_watts);
    return;
  }
  FoldPredictionError(measured_watts, predicted);
  if (denom < config_.min_denominator) {
    ++skipped_updates_;
    return;
  }

  std::fill(gain + n, gain + dim_, inert_gain);
  for (int k = 0; k < dim_; ++k) {
    theta_[static_cast<size_t>(k)] = std::clamp(
        theta_[static_cast<size_t>(k)] +
            gain[position_[static_cast<size_t>(k)]] * innovation,
        config_.min_coefficient_watts, config_.max_coefficient_watts);
  }
  // The full form's update and symmetrization, one pass over the upper
  // triangle of the touched block, mirrored into the lower.  Inert
  // features get only their diagonal: their rows and columns stay +0.
  const double lambda = config_.forgetting;
  double* p = p_.data();
  for (int i = 0; i < n; ++i) {
    double& diagonal = p[At(i, i)];
    diagonal = (diagonal - gain[i] * pphi[i]) / lambda;
  }
  for (int i = n; i < dim_; ++i) {
    double& diagonal = p[At(i, i)];
    diagonal = (diagonal - inert_gain * 0.0) / lambda;
  }
  uint64_t p_non_finite = 0;
  for (int i = 0; i + 1 < n; ++i) {
    double* row = p + At(i, 0);
    p_non_finite |=
        UpdateUpperRow(row, gain, pphi, gain[i], pphi[i], lambda, i + 1, n);
    for (int j = i + 1; j < n; ++j) {
      p[At(j, i)] = row[j];
    }
  }
  GuardAndCount();
  for (int i = 0; i < dim_; ++i) {
    p_non_finite |= NonFiniteBit(p[At(i, i)]);
  }
  if (AnyNonFinite(p_non_finite)) {
    SwitchToFullForm();
  }
}

void LearnedModel::SwitchToFullForm() {
  // Features 0..f-1 are already in place, so feature f sits at or after f.
  for (int f = 0; f < dim_; ++f) {
    MoveToPosition(position_[static_cast<size_t>(f)], f);
  }
  touched_ = dim_;
  full_form_ = true;
}

void LearnedModel::Admit(int feature) {
  int slot = 0;
  while (slot < touched_ && order_[static_cast<size_t>(slot)] < feature) {
    ++slot;
  }
  MoveToPosition(position_[static_cast<size_t>(feature)], slot);
  ++touched_;
}

void LearnedModel::MoveToPosition(int from, int to) {
  OD_DCHECK(to <= from);
  if (from == to) {
    return;
  }
  // The same rotation of rows and of columns keeps P symmetric.
  double* p = p_.data();
  std::rotate(p + At(to, 0), p + At(from, 0), p + At(from + 1, 0));
  for (int row = 0; row < dim_; ++row) {
    double* r = p + At(row, 0);
    std::rotate(r + to, r + from, r + from + 1);
  }
  std::rotate(order_.begin() + to, order_.begin() + from,
              order_.begin() + from + 1);
  for (int i = to; i <= from; ++i) {
    position_[static_cast<size_t>(order_[static_cast<size_t>(i)])] = i;
  }
}

void LearnedModel::ObserveFull(const std::vector<double>& phi,
                               double measured_watts) {
  double predicted = 0.0;
  for (int i = 0; i < dim_; ++i) {
    predicted += theta_[static_cast<size_t>(i)] * phi[static_cast<size_t>(i)];
  }
  FoldPredictionError(measured_watts, predicted);

  // RLS:  k = P phi / (lambda + phi' P phi)
  //       theta += k (y - phi' theta)
  //       P = (P - k phi' P) / lambda
  double denom = config_.forgetting;
  for (int i = 0; i < dim_; ++i) {
    double acc = 0.0;
    for (int j = 0; j < dim_; ++j) {
      acc += p_[At(i, j)] * phi[static_cast<size_t>(j)];
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
  }
  double innovation = measured_watts - predicted;
  for (int i = 0; i < dim_; ++i) {
    theta_[static_cast<size_t>(i)] =
        std::clamp(theta_[static_cast<size_t>(i)] +
                       gain_[static_cast<size_t>(i)] * innovation,
                   config_.min_coefficient_watts, config_.max_coefficient_watts);
  }
  // P update via the symmetric form (P - k (P phi)') / lambda, then an
  // explicit symmetrization: drift of P away from symmetry is the classic
  // RLS failure mode under forgetting.
  for (int i = 0; i < dim_; ++i) {
    for (int j = 0; j < dim_; ++j) {
      p_[At(i, j)] = (p_[At(i, j)] - gain_[static_cast<size_t>(i)] *
                                         pphi_[static_cast<size_t>(j)]) /
                     config_.forgetting;
    }
  }
  for (int i = 0; i < dim_; ++i) {
    for (int j = i + 1; j < dim_; ++j) {
      double mean = 0.5 * (p_[At(i, j)] + p_[At(j, i)]);
      p_[At(i, j)] = mean;
      p_[At(j, i)] = mean;
    }
  }
  GuardAndCount();
}

void LearnedModel::GuardAndCount() {
  // Covariance guard.  Forgetting inflates the variance of features that
  // stop being excited (1/lambda per step, unbounded); cap the diagonal at
  // the prior, and if the spread between the best- and worst-determined
  // directions still exceeds max_condition, lift the floor too.  Neither
  // pass depends on the order of the diagonal, so it runs in storage order.
  double max_diag = 0.0;
  for (int i = 0; i < dim_; ++i) {
    double& diagonal = p_[At(i, i)];
    if (diagonal > config_.initial_variance) {
      diagonal = config_.initial_variance;
    }
    max_diag = std::max(max_diag, diagonal);
  }
  double floor = max_diag / config_.max_condition;
  for (int i = 0; i < dim_; ++i) {
    double& diagonal = p_[At(i, i)];
    if (diagonal < floor) {
      diagonal = floor;
    }
  }
  ++samples_;
}

double LearnedModel::prediction_error_fraction() const {
  if (!ewma_primed_ || level_ewma_ <= 0.0) {
    return 1.0;
  }
  return error_ewma_ / level_ewma_;
}

double LearnedModel::confidence() const {
  double ramp = std::min(
      1.0, static_cast<double>(samples_) /
               static_cast<double>(std::max(1, config_.convergence_samples)));
  double quality = std::clamp(1.0 - prediction_error_fraction(), 0.0, 1.0);
  return ramp * quality;
}

bool LearnedModel::converged() const {
  return samples_ >= config_.convergence_samples &&
         prediction_error_fraction() <= config_.converged_error_fraction;
}

double LearnedModel::condition_proxy() const {
  // In the touched-block layout the diagonal is finite, so its storage
  // order does not change the result; the full form keeps feature order.
  double max_diag = 0.0;
  double min_diag = p_[At(0, 0)];
  for (int i = 0; i < dim_; ++i) {
    max_diag = std::max(max_diag, p_[At(i, i)]);
    min_diag = std::min(min_diag, p_[At(i, i)]);
  }
  return min_diag > 0.0 ? max_diag / min_diag
                        : std::numeric_limits<double>::infinity();
}

}  // namespace odpower
