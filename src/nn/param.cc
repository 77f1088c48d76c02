#include "nn/param.h"

#include <cmath>

namespace rl4oasd::nn {

namespace {

/// Assigns draw i to logical element (i / cols, i % cols), whatever the
/// storage layout, so a parameter's initial values do not depend on it.
template <typename Draw>
void FillLogical(Parameter* p, Draw&& draw) {
  for (size_t r = 0; r < p->rows(); ++r) {
    for (size_t c = 0; c < p->cols(); ++c) {
      p->value.data()[p->Offset(r, c)] = draw();
    }
  }
}

}  // namespace

void Parameter::XavierInit(rl4oasd::Rng* rng) {
  const float limit = std::sqrt(6.0f / static_cast<float>(rows() + cols()));
  FillLogical(this, [&] {
    return static_cast<float>(rng->Uniform(-limit, limit));
  });
}

void Parameter::UniformInit(rl4oasd::Rng* rng, float scale) {
  FillLogical(this, [&] {
    return static_cast<float>(rng->Uniform(-scale, scale));
  });
}

GradientSink::GradientSink(const ParameterRegistry& registry) {
  slots_.reserve(registry.params().size());
  for (Parameter* p : registry.params()) {
    Slot slot;
    slot.param = p;
    slot.buf.Resize(p->grad.rows(), p->grad.cols());
    slot.touched_bit.assign(p->grad.rows(), 0);
    slots_.push_back(std::move(slot));
    index_.emplace(p, slots_.size() - 1);
  }
}

GradientSink::Slot& GradientSink::SlotFor(const Parameter* p) {
  auto it = index_.find(p);
  RL4_CHECK(it != index_.end())
      << "parameter not in the sink's source registry: " << p->name;
  return slots_[it->second];
}

Matrix* GradientSink::Find(const Parameter* p) { return &SlotFor(p).buf; }

void GradientSink::TouchRow(const Parameter* p, size_t row) {
  Slot& slot = SlotFor(p);
  if (slot.all_touched || slot.touched_bit[row]) return;
  slot.touched_bit[row] = 1;
  slot.touched.push_back(static_cast<uint32_t>(row));
}

void GradientSink::TouchAll(const Parameter* p) {
  SlotFor(p).all_touched = true;
}

void GradientSink::AccumulateRows(const Parameter* p,
                                  std::span<const size_t> ids,
                                  const Matrix& grads) {
  Slot& slot = SlotFor(p);
  const size_t cols = slot.buf.cols();
  RL4_CHECK_EQ(grads.cols(), cols);
  for (size_t t = 0; t < ids.size(); ++t) {
    const size_t r = ids[t];
    RL4_CHECK_LT(r, slot.buf.rows());
    float* dst = slot.buf.Row(r);
    const float* src = grads.Row(t);
    for (size_t c = 0; c < cols; ++c) dst[c] += src[c];
    if (!slot.all_touched && !slot.touched_bit[r]) {
      slot.touched_bit[r] = 1;
      slot.touched.push_back(static_cast<uint32_t>(r));
    }
  }
}

void GradientSink::AddToParams() {
  for (Slot& slot : slots_) {
    const size_t cols = slot.buf.cols();
    auto add_row = [&](size_t r) {
      float* dst = slot.param->grad.Row(r);
      const float* src = slot.buf.Row(r);
      for (size_t c = 0; c < cols; ++c) dst[c] += src[c];
      if (slot.param->row_sparse) slot.param->TouchGradRow(r);
    };
    if (slot.all_touched) {
      for (size_t r = 0; r < slot.buf.rows(); ++r) add_row(r);
    } else {
      for (uint32_t r : slot.touched) add_row(r);
    }
  }
}

void GradientSink::Reset() {
  for (Slot& slot : slots_) {
    const size_t cols = slot.buf.cols();
    if (slot.all_touched) {
      slot.buf.SetZero();
      slot.all_touched = false;
    } else {
      for (uint32_t r : slot.touched) {
        float* row = slot.buf.Row(r);
        std::fill(row, row + cols, 0.0f);
      }
    }
    for (uint32_t r : slot.touched) slot.touched_bit[r] = 0;
    slot.touched.clear();
  }
}

float ParameterRegistry::ClipGradNorm(float max_norm) {
  double sq = 0.0;
  // Row-sparse parameters contribute only their touched rows: the skipped
  // rows are exactly zero, and zero squares are +0 terms that cannot move
  // the (non-negative) running sum, so the result is bit-identical to the
  // full walk — the bitmap iterates ascending, preserving the order of the
  // nonzero terms. Dense parameters sum in logical order, so the norm does
  // not depend on a parameter's storage layout.
  for (auto* p : params_) {
    if (p->row_sparse) {
      const size_t cols = p->grad.cols();
      ForEachSetRow(p->touched_bits, [&](size_t r) {
        const float* g = p->grad.Row(r);
        for (size_t c = 0; c < cols; ++c) sq += double(g[c]) * g[c];
      });
    } else {
      const float* g = p->grad.data();
      for (size_t r = 0; r < p->rows(); ++r) {
        for (size_t c = 0; c < p->cols(); ++c) {
          const float gi = g[p->Offset(r, c)];
          sq += double(gi) * gi;
        }
      }
    }
  }
  const float norm = static_cast<float>(std::sqrt(sq));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (auto* p : params_) {
      if (p->row_sparse) {
        const size_t cols = p->grad.cols();
        ForEachSetRow(p->touched_bits, [&](size_t r) {
          float* g = p->grad.Row(r);
          for (size_t c = 0; c < cols; ++c) g[c] *= scale;
        });
      } else {
        float* g = p->grad.data();
        for (size_t i = 0; i < p->grad.size(); ++i) g[i] *= scale;
      }
    }
  }
  return norm;
}

}  // namespace rl4oasd::nn
