// Trainable parameter = value matrix + gradient accumulator. Layers register
// their parameters in a ParameterRegistry; optimizers walk the registry.
// GradientSink provides detached, worker-local gradient buffers for the
// data-parallel training path.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace rl4oasd::nn {

/// Calls fn(row_index) for every set bit of a row bitmap, in ascending
/// order. Ascending matters wherever floating-point accumulation order is
/// part of a bit-exactness contract (e.g. the clip-norm sum).
template <typename Fn>
inline void ForEachSetRow(std::span<const uint64_t> words, Fn&& fn) {
  for (size_t w = 0; w < words.size(); ++w) {
    uint64_t bits = words[w];
    while (bits != 0) {
      fn((w << 6) + static_cast<size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
}

/// A named trainable tensor with a same-shaped gradient buffer.
struct Parameter {
  std::string name;
  Matrix value;
  Matrix grad;

  /// Row-sparse gradient tracking, opted into by embedding-style layers
  /// whose backward touches a handful of rows per step while the table
  /// holds thousands: every writer marks the rows it touches, the
  /// untouched rest of `grad` is guaranteed all-zero, and ZeroGrad /
  /// ClipGradNorm / the optimizers skip the zero rows. The skips are
  /// bit-exact, not approximate: zero gradient entries contribute exactly
  /// nothing to the clip norm (+0 terms never move an IEEE sum of
  /// squares), scale to themselves under clipping, and leave Adam rows
  /// with zero moments as exact fixed points (see AdamOptimizer::Step).
  bool row_sparse = false;
  std::vector<uint64_t> touched_bits;  // ceil(rows/64) words, row bitmap

  /// k-major mirror, opted into by layers that multiply batch-major
  /// activations by value^T (the LSTM gate weights): `value_t` is `value`
  /// transposed (cols x rows), so the gate outputs are the contiguous axis
  /// the GEMM vectorizes over. The contract: whoever writes `value` calls
  /// SyncKMajor() before the next read of the mirror. Every in-library
  /// writer does (XavierInit/UniformInit, the optimizers' Step, checkpoint
  /// and bundle loads), on the thread that wrote `value`, so the mirror
  /// needs no synchronization of its own; code that writes `value`
  /// directly (a test perturbing a weight) must resync itself. Debug
  /// builds check the mirror against `value` on every KMajor() read.
  bool k_major = false;
  Matrix value_t;

  Parameter() = default;
  Parameter(std::string n, size_t rows, size_t cols)
      : name(std::move(n)), value(rows, cols), grad(rows, cols) {}

  /// Turns on the k-major mirror and fills it from `value`.
  void EnableKMajorMirror() {
    k_major = true;
    SyncKMajor();
  }

  /// Rewrites the mirror from `value` (no-op without the mirror).
  void SyncKMajor();

  /// The mirror, for readers. Debug builds compare one rotating row of
  /// `value` with its mirror column per call (O(cols), so checked runs stay
  /// fast) and abort on a stale mirror.
  const Matrix& KMajor() const {
#ifndef NDEBUG
    CheckKMajorFresh();
#endif
    return value_t;
  }

  /// Turns on row-sparse tracking (call once, before any grad writes).
  void EnableRowSparseGrads() {
    row_sparse = true;
    touched_bits.assign((value.rows() + 63) / 64, 0);
  }

  /// Marks row r as holding gradient content since the last ZeroGrad.
  void TouchGradRow(size_t r) { touched_bits[r >> 6] |= 1ull << (r & 63); }

  void ZeroGrad() {
    if (!row_sparse) {
      grad.SetZero();
      return;
    }
    // Only touched rows can be nonzero; zero them and clear the bitmap.
    const size_t cols = grad.cols();
    ForEachSetRow(touched_bits, [this, cols](size_t r) {
      float* row = grad.Row(r);
      std::fill(row, row + cols, 0.0f);
    });
    std::fill(touched_bits.begin(), touched_bits.end(), 0);
  }

  /// Glorot/Xavier uniform initialization: U(-limit, limit) with
  /// limit = sqrt(6 / (fan_in + fan_out)).
  void XavierInit(rl4oasd::Rng* rng);

  /// U(-scale, scale) initialization (used for embedding tables).
  void UniformInit(rl4oasd::Rng* rng, float scale);

 private:
  void CheckKMajorFresh() const;
};

/// Non-owning collection of parameters belonging to one model.
class ParameterRegistry {
 public:
  void Register(Parameter* p) { params_.push_back(p); }
  const std::vector<Parameter*>& params() const { return params_; }

  void ZeroGrad() {
    for (auto* p : params_) p->ZeroGrad();
  }

  /// Total number of scalar weights.
  size_t NumWeights() const {
    size_t n = 0;
    for (auto* p : params_) n += p->value.size();
    return n;
  }

  /// Global L2 gradient-norm clipping; returns the pre-clip norm.
  float ClipGradNorm(float max_norm);

 private:
  std::vector<Parameter*> params_;
};

/// A detached set of gradient buffers shadowing a registry's parameters.
/// The sequence-level backward passes accept an optional sink; when given,
/// every parameter gradient lands in the sink's buffers instead of the
/// parameters' own, so N training workers can backprop through the SAME
/// model concurrently (weights are read-only during backward) into N sinks,
/// and the applying thread folds them back in a deterministic order.
///
/// Embedding-style parameters touch only a handful of rows per sequence;
/// the sink tracks touched rows so Reset()/AddToParams() cost O(touched),
/// not O(table).
class GradientSink {
 public:
  explicit GradientSink(const ParameterRegistry& registry);

  /// The sink buffer standing in for p->grad. p must belong to the source
  /// registry.
  Matrix* Find(const Parameter* p);

  /// Records that `row` of p's buffer now holds gradient content.
  void TouchRow(const Parameter* p, size_t row);

  /// Adds row t of `grads` (ids.size() x p->grad.cols()) into the sink row
  /// for ids[t], ascending t, touching each row — one slot lookup for the
  /// whole sequence (the embedding-backward hot path).
  void AccumulateRows(const Parameter* p, std::span<const size_t> ids,
                      const Matrix& grads);

  /// Records that every row of p's buffer holds content (dense layers).
  void TouchAll(const Parameter* p);

  /// Adds the touched sink contents into the parameters' own grad buffers.
  /// Call from the applying thread only.
  void AddToParams();

  /// Zeroes the touched rows and forgets the touch sets, restoring the
  /// all-zero invariant for the next accumulation.
  void Reset();

 private:
  struct Slot {
    Parameter* param;
    Matrix buf;                        // same shape as param->grad, zeroed
    std::vector<uint32_t> touched;     // touched row indices (no dups)
    std::vector<uint8_t> touched_bit;  // bitmap over rows
    bool all_touched = false;
  };

  Slot& SlotFor(const Parameter* p);

  std::vector<Slot> slots_;
  std::unordered_map<const Parameter*, size_t> index_;
};

}  // namespace rl4oasd::nn
