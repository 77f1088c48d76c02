#include "nn/lstm.h"

#include <algorithm>
#include <cmath>

namespace rl4oasd::nn {

namespace {

/// Gate activations over one sample's 4H pre-activations, in place:
/// [i, f] sigmoid, [g] tanh, [o] sigmoid. Shared by the streaming step and
/// the sequence forward, so activations never differ between the two.
void ActivateGates(float* g, size_t H) {
  for (size_t i = 0; i < 2 * H; ++i) g[i] = Sigmoid(g[i]);
  for (size_t i = 2 * H; i < 3 * H; ++i) g[i] = Tanh(g[i]);
  for (size_t i = 3 * H; i < 4 * H; ++i) g[i] = Sigmoid(g[i]);
}

/// dst = src^T. Writes dst row by row: scattering writes down dst's
/// columns instead runs ~5x slower at the 64-wide gate weights, whose
/// 1 KiB row stride maps a column onto a few cache sets.
void Transpose(const Matrix& src, Matrix* dst) {
  dst->EnsureShape(src.cols(), src.rows());
  for (size_t c = 0; c < src.cols(); ++c) {
    float* row = dst->Row(c);
    for (size_t r = 0; r < src.rows(); ++r) row[r] = src(r, c);
  }
}

void CheckStateSize(const LstmState& s, size_t b, size_t hidden) {
  RL4_CHECK(s.h.size() == hidden && s.c.size() == hidden)
      << "LSTM state of stream " << b << " has h/c lengths " << s.h.size()
      << "/" << s.c.size() << ", expected " << hidden;
}

}  // namespace

void LstmBatchState::Gather(std::span<const LstmState* const> states,
                            size_t hidden) {
  const size_t batch = states.size();
  h.EnsureShape(batch, hidden);
  c.EnsureShape(batch, hidden);
  for (size_t b = 0; b < batch; ++b) {
    CheckStateSize(*states[b], b, hidden);
    std::copy(states[b]->h.begin(), states[b]->h.end(), h.Row(b));
    std::copy(states[b]->c.begin(), states[b]->c.end(), c.Row(b));
  }
}

void LstmBatchState::Scatter(std::span<LstmState* const> states) const {
  const size_t batch = states.size();
  RL4_CHECK_EQ(batch, h.rows());
  const size_t hidden = h.cols();
  for (size_t b = 0; b < batch; ++b) {
    CheckStateSize(*states[b], b, hidden);
    std::copy(h.Row(b), h.Row(b) + hidden, states[b]->h.begin());
    std::copy(c.Row(b), c.Row(b) + hidden, states[b]->c.begin());
  }
}

Lstm::Lstm(std::string name, size_t input_dim, size_t hidden_dim,
           rl4oasd::Rng* rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      wx_(name + ".wx", 4 * hidden_dim, input_dim, /*kmajor=*/true),
      wh_(name + ".wh", 4 * hidden_dim, hidden_dim, /*kmajor=*/true),
      b_(name + ".b", 1, 4 * hidden_dim) {
  wx_.XavierInit(rng);
  wh_.XavierInit(rng);
  // Forget-gate bias of 1.0 is the standard trick for gradient flow early in
  // training.
  for (size_t i = 0; i < hidden_dim_; ++i) {
    b_.value(0, hidden_dim_ + i) = 1.0f;
  }
}

void Lstm::StepForwardBatch(const Matrix& x, LstmBatchState* state) const {
  const size_t H = hidden_dim_;
  const size_t B = x.rows();
  RL4_CHECK_EQ(x.cols(), input_dim_);
  RL4_CHECK_EQ(state->h.rows(), B);
  RL4_CHECK_EQ(state->h.cols(), H);
  RL4_CHECK_EQ(state->c.rows(), B);
  RL4_CHECK_EQ(state->c.cols(), H);
  // Same accumulation order as Forward's steps: x Wx^T, then + b, then
  // + h_prev Wh^T (its own product chain, added once), then the
  // activations. Thread-local scratch: fully overwritten every call
  // (MatMul resizes), so steady-state waves do no allocation.
  static thread_local Matrix gates;  // B x 4H
  MatMul(x, wx_.value, &gates);
  AddBiasPerColumn(&gates, b_.value.Row(0));
  MatMulAccum(state->h, wh_.value, &gates);
  for (size_t b = 0; b < B; ++b) {
    float* g = gates.Row(b);
    ActivateGates(g, H);
    const float* ig = g;
    const float* fg = g + H;
    const float* gg = g + 2 * H;
    const float* og = g + 3 * H;
    float* c = state->c.Row(b);
    float* h = state->h.Row(b);
    for (size_t i = 0; i < H; ++i) {
      c[i] = fg[i] * c[i] + ig[i] * gg[i];
      h[i] = og[i] * Tanh(c[i]);
    }
  }
}

std::vector<LstmStepCache> Lstm::Forward(
    const std::vector<const float*>& inputs) const {
  const size_t H = hidden_dim_;
  const size_t I = input_dim_;
  const size_t T = inputs.size();
  std::vector<LstmStepCache> caches(T);
  if (T == 0) return caches;
  // Input projection for all timesteps in one GEMM: the inputs stacked as
  // rows (T x I) times Wx^T, plus the bias, as (T x 4H). Each element is
  // the same ascending-k dot chain a one-row step runs, so the gates are
  // bit-identical to stepping StepForwardBatch.
  static thread_local Matrix xs;     // T x I
  static thread_local Matrix gates;  // T x 4H
  xs.EnsureShape(T, I);
  for (size_t t = 0; t < T; ++t) {
    std::copy(inputs[t], inputs[t] + I, xs.Row(t));
  }
  MatMul(xs, wx_.value, &gates);
  AddBiasPerColumn(&gates, b_.value.Row(0));
  const Vec zero(H, 0.0f);
  for (size_t t = 0; t < T; ++t) {
    LstmStepCache& cache = caches[t];
    cache.x.assign(inputs[t], inputs[t] + I);
    // gates += h_prev Wh^T: the B = 1 recurrent product, its chain summed
    // on its own and added once — the association StepForwardBatch uses.
    const Vec& h_prev = t == 0 ? zero : caches[t - 1].h;
    float* row = gates.Row(t);
    Gemm(h_prev.data(), 1, H, H, wh_.value.data(), 4 * H, 4 * H, row, 4 * H,
         /*accumulate=*/true);
    cache.gates.assign(row, row + 4 * H);
    ActivateGates(cache.gates.data(), H);
    cache.c_prev = t == 0 ? zero : caches[t - 1].c;
    cache.c.resize(H);
    cache.tanh_c.resize(H);
    cache.h.resize(H);
    const float* ig = cache.gates.data();
    const float* fg = cache.gates.data() + H;
    const float* gg = cache.gates.data() + 2 * H;
    const float* og = cache.gates.data() + 3 * H;
    for (size_t i = 0; i < H; ++i) {
      cache.c[i] = fg[i] * cache.c_prev[i] + ig[i] * gg[i];
      cache.tanh_c[i] = Tanh(cache.c[i]);
      cache.h[i] = og[i] * cache.tanh_c[i];
    }
  }
  return caches;
}

void Lstm::Backward(const std::vector<LstmStepCache>& caches,
                    const std::vector<Vec>& d_h, std::vector<Vec>* d_x) {
  RL4_CHECK_EQ(caches.size(), d_h.size());
  const size_t H = hidden_dim_;
  const size_t T = caches.size();
  if (d_x != nullptr) {
    d_x->assign(T, Vec(input_dim_, 0.0f));
  }
  Vec dc_next(H, 0.0f);   // dL/dc flowing from step t+1
  Vec dh_next(H, 0.0f);   // dL/dh flowing from step t+1 (recurrent path)
  Vec d_gates(4 * H);     // pre-activation gate gradients
  for (size_t t = T; t-- > 0;) {
    const LstmStepCache& cache = caches[t];
    const float* ig = cache.gates.data();
    const float* fg = cache.gates.data() + H;
    const float* gg = cache.gates.data() + 2 * H;
    const float* og = cache.gates.data() + 3 * H;
    for (size_t i = 0; i < H; ++i) {
      const float dh = d_h[t][i] + dh_next[i];
      const float dc = dh * og[i] * (1.0f - cache.tanh_c[i] * cache.tanh_c[i]) +
                       dc_next[i];
      const float di = dc * gg[i];
      const float df = dc * cache.c_prev[i];
      const float dg = dc * ig[i];
      const float dout = dh * cache.tanh_c[i];
      // Pre-activation gradients through sigmoid/tanh.
      d_gates[i] = di * ig[i] * (1.0f - ig[i]);
      d_gates[H + i] = df * fg[i] * (1.0f - fg[i]);
      d_gates[2 * H + i] = dg * (1.0f - gg[i] * gg[i]);
      d_gates[3 * H + i] = dout * og[i] * (1.0f - og[i]);
      dc_next[i] = dc * fg[i];
    }
    // Parameter gradients, in the stored k-major form: dWx^T += x d_gates^T
    // and dWh^T += h_prev d_gates^T.
    OuterAccum(&wx_.grad, cache.x.data(), d_gates.data());
    if (t > 0) OuterAccum(&wh_.grad, caches[t - 1].h.data(), d_gates.data());
    float* db = b_.grad.Row(0);
    for (size_t i = 0; i < 4 * H; ++i) db[i] += d_gates[i];
    // Input gradient d_x = Wx^T d_gates.
    if (d_x != nullptr) MatVec(wx_.value, d_gates.data(), (*d_x)[t].data());
    // Recurrent hidden gradient for step t-1: dh = Wh^T d_gates.
    if (t > 0) {
      MatVec(wh_.value, d_gates.data(), dh_next.data());
    } else {
      std::fill(dh_next.begin(), dh_next.end(), 0.0f);
    }
  }
}

void Lstm::BackwardSeq(const std::vector<LstmStepCache>& caches,
                       const Matrix& d_h, Matrix* d_x, GradientSink* sink) {
  const size_t H = hidden_dim_;
  const size_t I = input_dim_;
  const size_t T = caches.size();
  RL4_CHECK_EQ(d_h.rows(), T);
  if (T == 0) {
    if (d_x != nullptr) d_x->EnsureShape(0, I);
    return;
  }
  RL4_CHECK_EQ(d_h.cols(), H);
  Matrix* wx_g = sink != nullptr ? sink->Find(&wx_) : &wx_.grad;
  Matrix* wh_g = sink != nullptr ? sink->Find(&wh_) : &wh_.grad;
  Matrix* b_g = sink != nullptr ? sink->Find(&b_) : &b_.grad;
  if (sink != nullptr) {
    sink->TouchAll(&wx_);
    sink->TouchAll(&wh_);
    sink->TouchAll(&b_);
  }

  // Timestep-packed matrices in reversed time (j <-> step t = T-1-j), so
  // the ascending-k chains of the weight-gradient GEMMs replay the per-step
  // backward's descending-t accumulation order: from zeroed gradient
  // buffers every weight-gradient element is the same product chain. Those
  // GEMMs run in the weights' stored k-major form, dW^T += X^T DG, with the
  // 4H gate gradients as the contiguous axis. The input and dh products
  // multiply by Wx^T and Wh^T, which want the weights row-major: they read
  // copies packed once per call (weights are read-only during backward, so
  // a pack cannot go stale), each element one ascending chain over the 4H
  // gates as in Backward. Thread-local scratch: fully rewritten, steady
  // state allocates nothing.
  static thread_local Matrix dg_rev;   // T x 4H, row j
  static thread_local Matrix x_cols;   // I x T, column j <-> x_t
  static thread_local Matrix h_cols;   // H x (T-1), column j <-> h_{t-1}
  static thread_local Matrix wx_rows;  // 4H x I
  static thread_local Matrix wh_rows;  // 4H x H
  dg_rev.EnsureShape(T, 4 * H);
  x_cols.EnsureShape(I, T);
  if (d_x != nullptr) Transpose(wx_.value, &wx_rows);
  if (T > 1) {
    h_cols.EnsureShape(H, T - 1);
    Transpose(wh_.value, &wh_rows);
  }

  // The gate-gradient recursion is inherently sequential (dh/dc of step t
  // feed step t-1) and runs exactly the per-step code; only the parameter
  // and input gradients are deferred to the GEMMs below.
  Vec dc_next(H, 0.0f);
  Vec dh_next(H, 0.0f);
  for (size_t t = T; t-- > 0;) {
    const LstmStepCache& cache = caches[t];
    const size_t j = T - 1 - t;
    float* d_gates = dg_rev.Row(j);
    const float* ig = cache.gates.data();
    const float* fg = cache.gates.data() + H;
    const float* gg = cache.gates.data() + 2 * H;
    const float* og = cache.gates.data() + 3 * H;
    const float* dht = d_h.Row(t);
    for (size_t i = 0; i < H; ++i) {
      const float dh = dht[i] + dh_next[i];
      const float dc = dh * og[i] * (1.0f - cache.tanh_c[i] * cache.tanh_c[i]) +
                       dc_next[i];
      const float di = dc * gg[i];
      const float df = dc * cache.c_prev[i];
      const float dgv = dc * ig[i];
      const float dout = dh * cache.tanh_c[i];
      d_gates[i] = di * ig[i] * (1.0f - ig[i]);
      d_gates[H + i] = df * fg[i] * (1.0f - fg[i]);
      d_gates[2 * H + i] = dgv * (1.0f - gg[i] * gg[i]);
      d_gates[3 * H + i] = dout * og[i] * (1.0f - og[i]);
      dc_next[i] = dc * fg[i];
    }
    // Scatter the GEMM operands into their reversed-time columns.
    for (size_t c = 0; c < I; ++c) x_cols(c, j) = cache.x[c];
    if (t > 0) {
      const Vec& hp = caches[t - 1].h;
      for (size_t c = 0; c < H; ++c) h_cols(c, j) = hp[c];
    }
    // Bias gradient: element-wise accumulation in the per-step order.
    float* db = b_g->Row(0);
    for (size_t i = 0; i < 4 * H; ++i) db[i] += d_gates[i];
    // Recurrent hidden gradient for step t-1 (same per-step matvec).
    std::fill(dh_next.begin(), dh_next.end(), 0.0f);
    if (t > 0) {
      MatTransVecAccum(wh_rows, d_gates, dh_next.data());
    }
  }

  // dWx^T += X^T DG and dWh^T += Hprev^T DG[:T-1] as single GEMMs.
  Gemm(x_cols.data(), I, T, T, dg_rev.data(), 4 * H, 4 * H, wx_g->data(),
       4 * H, /*accumulate=*/true);
  if (T > 1) {
    Gemm(h_cols.data(), H, T - 1, T - 1, dg_rev.data(), 4 * H, 4 * H,
         wh_g->data(), 4 * H, /*accumulate=*/true);
  }
  // d_x = DG Wx, row t from DG's reversed row T-1-t (rows are independent
  // chains, so one GEMM per row is the same arithmetic as one for all).
  if (d_x != nullptr) {
    d_x->EnsureShape(T, I);
    for (size_t t = 0; t < T; ++t) {
      Gemm(dg_rev.Row(T - 1 - t), 1, 4 * H, 4 * H, wx_rows.data(), I, I,
           d_x->Row(t), I, /*accumulate=*/false);
    }
  }
}

}  // namespace rl4oasd::nn
