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

  /// Storage layout. Row-major by default: value(r, c) is logical element
  /// (r, c). A k-major parameter (the LSTM gate weights, which multiply
  /// batch-major activations by value^T) stores the transpose instead:
  /// `value` and `grad` are (cols x rows), so the gate outputs are the
  /// contiguous axis the GEMM vectorizes over. Element-wise code (the
  /// optimizers, ZeroGrad, gradient sinks) is layout-blind; the places
  /// whose result depends on element order (io, XavierInit/UniformInit,
  /// the ClipGradNorm sum) walk logical order through Offset().
  bool k_major = false;

  Parameter() = default;
  Parameter(std::string n, size_t rows, size_t cols, bool kmajor = false)
      : name(std::move(n)),
        value(kmajor ? cols : rows, kmajor ? rows : cols),
        grad(kmajor ? cols : rows, kmajor ? rows : cols),
        k_major(kmajor) {}

  /// Logical shape (what io reads and writes).
  size_t rows() const { return k_major ? value.cols() : value.rows(); }
  size_t cols() const { return k_major ? value.rows() : value.cols(); }

  /// Position of logical element (r, c) in value.data() and grad.data().
  size_t Offset(size_t r, size_t c) const {
    return k_major ? c * value.cols() + r : r * value.cols() + c;
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
