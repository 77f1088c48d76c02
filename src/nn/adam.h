// Adam optimizer over a ParameterRegistry.
#pragma once

#include <vector>

#include "nn/param.h"

namespace rl4oasd::nn {

struct AdamConfig {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;
};

/// Adam (Kingma & Ba) with bias correction. Maintains per-parameter first and
/// second moment estimates keyed by registry position, so the registry must
/// not change between Step() calls.
class AdamOptimizer {
 public:
  AdamOptimizer(ParameterRegistry* registry, AdamConfig config);

  /// Applies one update from the accumulated gradients (does not zero them).
  void Step();

  /// Current learning rate (mutable for schedules / fine-tuning).
  float lr() const { return config_.lr; }
  void set_lr(float lr) { config_.lr = lr; }

  int64_t step_count() const { return t_; }

  /// First and second moment estimates of registry parameter k, laid out
  /// like its value.
  const Matrix& first_moment(size_t k) const { return m_[k]; }
  const Matrix& second_moment(size_t k) const { return v_[k]; }

 private:
  ParameterRegistry* registry_;
  AdamConfig config_;
  int64_t t_ = 0;
  std::vector<Matrix> m_;  // first moments, parallel to registry params
  std::vector<Matrix> v_;  // second moments
  /// Per-parameter bitmap of rows with (potentially) nonzero moments, for
  /// row-sparse parameters: only these plus newly-touched rows need the
  /// per-step decay walk (exact skip; see Step()).
  std::vector<std::vector<uint64_t>> active_rows_;
};

}  // namespace rl4oasd::nn
