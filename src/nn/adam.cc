#include "nn/adam.h"

#include <cmath>

namespace rl4oasd::nn {

namespace {

// One Adam update over n contiguous elements. Written so GCC vectorizes it
// at the baseline ISA with every result unchanged: the hyperparameters come
// by value (in registers, not re-read through a pointer the float stores
// might alias), the four arrays never overlap (__restrict), the operation
// order is the textbook one below (no reassociation; the build allows no
// FMA contraction), and packed divps/sqrtps round exactly like their scalar
// forms. The square root only inlines to sqrtps because rl4oasd_nn builds
// with -fno-math-errno (see CMakeLists.txt): v / bias2 >= 0, so sqrtf could
// never set errno anyway.
void AdamRow(float* __restrict w, const float* __restrict g,
             float* __restrict m, float* __restrict v, size_t n,
             const AdamConfig c, const float bias1, const float bias2) {
  for (size_t i = 0; i < n; ++i) {
    float gi = g[i] + c.weight_decay * w[i];
    m[i] = c.beta1 * m[i] + (1.0f - c.beta1) * gi;
    v[i] = c.beta2 * v[i] + (1.0f - c.beta2) * gi * gi;
    const float mhat = m[i] / bias1;
    const float vhat = v[i] / bias2;
    w[i] -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
  }
}

}  // namespace

AdamOptimizer::AdamOptimizer(ParameterRegistry* registry, AdamConfig config)
    : registry_(registry), config_(config) {
  m_.reserve(registry->params().size());
  v_.reserve(registry->params().size());
  for (const auto* p : registry->params()) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void AdamOptimizer::Step() {
  ++t_;
  const float bias1 = 1.0f - std::pow(config_.beta1, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(config_.beta2, static_cast<float>(t_));
  const auto& params = registry_->params();
  if (active_rows_.empty()) active_rows_.resize(params.size());
  for (size_t k = 0; k < params.size(); ++k) {
    Parameter* p = params[k];
    // Row-sparse parameters (embedding tables): a row whose gradient is
    // zero AND whose moments are zero is an exact fixed point of the
    // update when weight decay is off (m and v stay 0, the step is
    // lr * 0 / (sqrt(0) + eps) = 0, and w - 0.0f == w for every float), so
    // only rows ever touched since this optimizer started need work. The
    // active set is sticky: once a row has nonzero moments they decay
    // multiplicatively and must keep updating every step.
    if (p->row_sparse && config_.weight_decay == 0.0f) {
      auto& active = active_rows_[k];
      if (active.empty()) active.resize(p->touched_bits.size(), 0);
      const size_t cols = p->value.cols();
      for (size_t wd = 0; wd < active.size(); ++wd) {
        active[wd] |= p->touched_bits[wd];
      }
      ForEachSetRow(active, [&](size_t r) {
        AdamRow(p->value.Row(r), p->grad.Row(r), m_[k].Row(r), v_[k].Row(r),
                cols, config_, bias1, bias2);
      });
    } else {
      AdamRow(p->value.data(), p->grad.data(), m_[k].data(), v_[k].data(),
              p->value.size(), config_, bias1, bias2);
    }
  }
}

}  // namespace rl4oasd::nn
