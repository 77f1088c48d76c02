// LSTM (Hochreiter & Schmidhuber) with full backpropagation through time.
// Two usage modes:
//   * Sequence mode (training): Lstm::Forward stores per-step caches so
//     Lstm::BackwardSeq can run BPTT over the whole trajectory.
//   * Streaming mode (online detection): each trip's LstmState carries
//     (h, c) across incoming road segments; StepForwardBatch advances B >= 1
//     trips by one segment each, gathered into an LstmBatchState.
//
// Both forwards are batch-major: row b of an input or state matrix is one
// sample, and the gate pre-activations are (B x 4H) = X (B x I) * Wx^T
// (I x 4H) + H (B x H) * Wh^T (H x 4H). The gate weights are stored k-major
// (Parameter::k_major: value is Wx^T / Wh^T, the only copy), so the 4H gate
// outputs are the GEMM's contiguous, vectorized axis at every width, B = 1
// included; each gate element is still one ascending-k product chain.
// Bundles and checkpoints hold the logical (4H x I) / (4H x H) tensors.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "nn/param.h"

namespace rl4oasd::nn {

/// Recurrent state of a streaming LSTM: hidden and cell vectors.
struct LstmState {
  Vec h;
  Vec c;

  explicit LstmState(size_t hidden = 0) : h(hidden, 0.0f), c(hidden, 0.0f) {}
  void Reset() {
    std::fill(h.begin(), h.end(), 0.0f);
    std::fill(c.begin(), c.end(), 0.0f);
  }
};

/// Recurrent state of a batch of B streaming LSTMs: batch-major (B x H)
/// matrices whose row b is stream b's state, so the gate pre-activations
/// of the whole batch are two GEMMs. Built by gathering per-stream states,
/// advanced by Lstm::StepForwardBatch, scattered back.
struct LstmBatchState {
  Matrix h;  // B x H
  Matrix c;  // B x H

  LstmBatchState() = default;
  LstmBatchState(size_t hidden, size_t batch)
      : h(batch, hidden), c(batch, hidden) {}

  /// Copies states[b] into row b. Both vectors of every state must have
  /// length `hidden` (checked).
  void Gather(std::span<const LstmState* const> states, size_t hidden);
  /// Copies row b back into states[b], whose vectors must have length H
  /// (checked).
  void Scatter(std::span<LstmState* const> states) const;
};

/// Per-step cache retained by sequence-mode forward for BPTT.
struct LstmStepCache {
  Vec x;        // input at this step
  Vec gates;    // post-activation [i, f, g, o], length 4H
  Vec c_prev;   // cell state entering the step
  Vec c;        // cell state leaving the step
  Vec tanh_c;   // tanh(c)
  Vec h;        // hidden output
};

/// Single-layer LSTM.
class Lstm {
 public:
  Lstm(std::string name, size_t input_dim, size_t hidden_dim,
       rl4oasd::Rng* rng);

  size_t input_dim() const { return input_dim_; }
  size_t hidden_dim() const { return hidden_dim_; }

  /// Streaming step over B >= 1 independent streams: x is (B x input_dim)
  /// with sample b in row b, and `state` carries (B x H) hidden/cell
  /// matrices updated in place. The four gate matmuls of all B streams run
  /// as one (B x I) * (I x 4H) GEMM (plus the recurrent (B x H) * (H x 4H)),
  /// and row b's result is the step Forward takes from sample b's state
  /// whatever B is (see Gemm's equivalence contract). Inference only: no
  /// caches are kept.
  void StepForwardBatch(const Matrix& x, LstmBatchState* state) const;

  /// Sequence forward from the zero state. Returns per-step caches (the
  /// hidden output of step t is caches[t].h). The input projection of all
  /// timesteps runs as one (T x I) * (I x 4H) GEMM; the recurrent part is
  /// inherently sequential, one B = 1 product per step. Bit-identical to
  /// stepping StepForwardBatch.
  std::vector<LstmStepCache> Forward(
      const std::vector<const float*>& inputs) const;

  /// Per-step reference BPTT. `d_h` holds the gradient flowing into each
  /// step's hidden output (same length as caches). Parameter gradients are
  /// accumulated; if `d_x` is non-null it receives per-step input gradients
  /// (resized internally). Only tests call it: it is the plainly auditable
  /// reference nn_bptt_test holds BackwardSeq to, and every training path
  /// uses BackwardSeq.
  void Backward(const std::vector<LstmStepCache>& caches,
                const std::vector<Vec>& d_h, std::vector<Vec>* d_x);

  /// GEMM-backed BPTT. `d_h` is (T x H) with row t the gradient into step
  /// t's hidden output; `d_x` (optional) is resized to (T x input_dim).
  /// The per-step gate-gradient recursion stays sequential, but the weight
  /// gradients become two GEMMs over timestep-packed matrices (reversed
  /// time, so each product chain replays the per-step accumulation order);
  /// the input gradients and the dh recursion multiply by row-major copies
  /// of the weights packed once per call. Starting from zeroed
  /// gradient buffers this is bit-identical to Backward; `sink` (optional)
  /// redirects every parameter gradient into worker-local buffers, which
  /// makes concurrent calls on one Lstm safe (weights are only read).
  void BackwardSeq(const std::vector<LstmStepCache>& caches,
                   const Matrix& d_h, Matrix* d_x,
                   GradientSink* sink = nullptr);

  void RegisterParams(ParameterRegistry* registry) {
    registry->Register(&wx_);
    registry->Register(&wh_);
    registry->Register(&b_);
  }

 private:
  size_t input_dim_;
  size_t hidden_dim_;
  Parameter wx_;  // 4H x input_dim, stored k-major
  Parameter wh_;  // 4H x hidden_dim, stored k-major
  Parameter b_;   // 1 x 4H
};

}  // namespace rl4oasd::nn
