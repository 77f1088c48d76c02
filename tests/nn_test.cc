// Neural-network substrate tests, including finite-difference gradient
// checks for the Linear and LSTM layers (the correctness anchor for all
// training in the repo) and convergence tests for Adam.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nn/adam.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/tensor.h"

namespace rl4oasd::nn {
namespace {

TEST(TensorTest, MatVec) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(0, 2) = 3;
  m(1, 0) = 4;
  m(1, 1) = 5;
  m(1, 2) = 6;
  const float x[3] = {1, 0, -1};
  float y[2];
  MatVec(m, x, y);
  EXPECT_FLOAT_EQ(y[0], -2.0f);
  EXPECT_FLOAT_EQ(y[1], -2.0f);
}

TEST(TensorTest, MatTransVecAccum) {
  Matrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  const float g[2] = {1, 1};
  float y[2] = {0, 0};
  MatTransVecAccum(m, g, y);
  EXPECT_FLOAT_EQ(y[0], 4.0f);
  EXPECT_FLOAT_EQ(y[1], 6.0f);
}

TEST(TensorTest, OuterAccum) {
  Matrix m(2, 2);
  const float g[2] = {1, 2};
  const float x[2] = {3, 4};
  OuterAccum(&m, g, x);
  EXPECT_FLOAT_EQ(m(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(m(0, 1), 4.0f);
  EXPECT_FLOAT_EQ(m(1, 0), 6.0f);
  EXPECT_FLOAT_EQ(m(1, 1), 8.0f);
}

TEST(TensorTest, SoftmaxNormalizes) {
  float logits[3] = {1.0f, 2.0f, 3.0f};
  SoftmaxInPlace(logits, 3);
  EXPECT_NEAR(logits[0] + logits[1] + logits[2], 1.0f, 1e-6f);
  EXPECT_GT(logits[2], logits[1]);
  EXPECT_GT(logits[1], logits[0]);
}

TEST(TensorTest, SoftmaxStableWithLargeLogits) {
  float logits[2] = {1000.0f, 1001.0f};
  SoftmaxInPlace(logits, 2);
  EXPECT_FALSE(std::isnan(logits[0]));
  EXPECT_NEAR(logits[0] + logits[1], 1.0f, 1e-6f);
}

TEST(TensorTest, CosineSimilarity) {
  const float a[2] = {1, 0};
  const float b[2] = {0, 1};
  const float c[2] = {2, 0};
  const float z[2] = {0, 0};
  EXPECT_NEAR(CosineSimilarity(a, b, 2), 0.0f, 1e-6f);
  EXPECT_NEAR(CosineSimilarity(a, c, 2), 1.0f, 1e-6f);
  EXPECT_FLOAT_EQ(CosineSimilarity(a, z, 2), 0.0f);
}

TEST(TensorTest, CrossEntropyOfPerfectPrediction) {
  const float probs[2] = {0.0f, 1.0f};
  EXPECT_NEAR(CrossEntropy(probs, 2, 1), 0.0f, 1e-5f);
  EXPECT_GT(CrossEntropy(probs, 2, 0), 10.0f);  // clamped, not inf
}

TEST(ParamTest, XavierInitWithinLimit) {
  Rng rng(3);
  Parameter p("w", 10, 20);
  p.XavierInit(&rng);
  const float limit = std::sqrt(6.0f / 30.0f);
  for (size_t i = 0; i < p.value.size(); ++i) {
    EXPECT_LE(std::abs(p.value.data()[i]), limit);
  }
}

TEST(ParamTest, ClipGradNorm) {
  Parameter p("w", 1, 4);
  for (size_t i = 0; i < 4; ++i) p.grad.data()[i] = 10.0f;
  ParameterRegistry reg;
  reg.Register(&p);
  const float pre = reg.ClipGradNorm(1.0f);
  EXPECT_NEAR(pre, 20.0f, 1e-4f);
  float norm = 0.0f;
  for (size_t i = 0; i < 4; ++i) norm += p.grad.data()[i] * p.grad.data()[i];
  EXPECT_NEAR(std::sqrt(norm), 1.0f, 1e-5f);
}

// ---- Finite-difference gradient check helpers.

constexpr float kFdEps = 1e-2f;
constexpr float kFdTol = 2e-2f;  // relative tolerance for float32 FD

// Loss used in the checks: L = sum_i target_i * out_i (linear in outputs, so
// d_out = target).
TEST(LinearGradientCheck, WeightsAndInput) {
  Rng rng(5);
  Linear lin("l", 4, 3, &rng);
  float x[4], d_out[3];
  for (auto& v : x) v = static_cast<float>(rng.Uniform(-1, 1));
  for (auto& v : d_out) v = static_cast<float>(rng.Uniform(-1, 1));

  auto loss = [&]() {
    float out[3];
    lin.Forward(x, out);
    return Dot(out, d_out, 3);
  };

  // Analytic gradients.
  lin.weight()->ZeroGrad();
  lin.bias()->ZeroGrad();
  float d_x[4] = {0, 0, 0, 0};
  lin.Backward(x, d_out, d_x);

  // FD on a few weight entries.
  for (size_t k : {size_t{0}, size_t{5}, size_t{11}}) {
    float* w = lin.weight()->value.data();
    const float orig = w[k];
    w[k] = orig + kFdEps;
    const float up = loss();
    w[k] = orig - kFdEps;
    const float down = loss();
    w[k] = orig;
    const float fd = (up - down) / (2 * kFdEps);
    EXPECT_NEAR(lin.weight()->grad.data()[k], fd,
                kFdTol * std::max(1.0f, std::abs(fd)));
  }
  // FD on input.
  for (int k = 0; k < 4; ++k) {
    const float orig = x[k];
    x[k] = orig + kFdEps;
    const float up = loss();
    x[k] = orig - kFdEps;
    const float down = loss();
    x[k] = orig;
    const float fd = (up - down) / (2 * kFdEps);
    EXPECT_NEAR(d_x[k], fd, kFdTol * std::max(1.0f, std::abs(fd)));
  }
}

TEST(LstmGradientCheck, ParametersAndInputs) {
  Rng rng(9);
  const size_t I = 3, H = 4, T = 5;
  Lstm lstm("g", I, H, &rng);

  std::vector<Vec> xs(T, Vec(I));
  for (auto& x : xs) {
    for (auto& v : x) v = static_cast<float>(rng.Uniform(-1, 1));
  }
  std::vector<Vec> d_h(T, Vec(H));
  for (auto& d : d_h) {
    for (auto& v : d) v = static_cast<float>(rng.Uniform(-1, 1));
  }

  auto loss = [&]() {
    std::vector<const float*> inputs;
    for (auto& x : xs) inputs.push_back(x.data());
    auto caches = lstm.Forward(inputs);
    float total = 0.0f;
    for (size_t t = 0; t < T; ++t) {
      total += Dot(caches[t].h.data(), d_h[t].data(), H);
    }
    return total;
  };

  ParameterRegistry reg;
  lstm.RegisterParams(&reg);
  reg.ZeroGrad();
  std::vector<const float*> inputs;
  for (auto& x : xs) inputs.push_back(x.data());
  auto caches = lstm.Forward(inputs);
  std::vector<Vec> d_x;
  lstm.Backward(caches, d_h, &d_x);

  // Spot-check several parameter coordinates across all three tensors.
  for (Parameter* p : reg.params()) {
    for (size_t k = 0; k < p->value.size(); k += p->value.size() / 5 + 1) {
      float* w = p->value.data();
      const float orig = w[k];
      w[k] = orig + kFdEps;
      const float up = loss();
      w[k] = orig - kFdEps;
      const float down = loss();
      w[k] = orig;
      const float fd = (up - down) / (2 * kFdEps);
      EXPECT_NEAR(p->grad.data()[k], fd,
                  kFdTol * std::max(1.0f, std::abs(fd)))
          << p->name << "[" << k << "]";
    }
  }
  // And the input gradient at t = 1.
  for (size_t k = 0; k < I; ++k) {
    const float orig = xs[1][k];
    xs[1][k] = orig + kFdEps;
    const float up = loss();
    xs[1][k] = orig - kFdEps;
    const float down = loss();
    xs[1][k] = orig;
    const float fd = (up - down) / (2 * kFdEps);
    EXPECT_NEAR(d_x[1][k], fd, kFdTol * std::max(1.0f, std::abs(fd)));
  }
}

TEST(LstmTest, StreamingMatchesSequenceForward) {
  Rng rng(21);
  const size_t I = 4, H = 6, T = 7;
  Lstm lstm("s", I, H, &rng);
  std::vector<Vec> xs(T, Vec(I));
  for (auto& x : xs) {
    for (auto& v : x) v = static_cast<float>(rng.Uniform(-1, 1));
  }
  std::vector<const float*> inputs;
  for (auto& x : xs) inputs.push_back(x.data());
  auto caches = lstm.Forward(inputs);

  // The streaming step is StepForwardBatch; at B = 1 the (1 x H) state
  // matrices are plain vectors.
  LstmBatchState state(H, 1);
  Matrix x(1, I);
  for (size_t t = 0; t < T; ++t) {
    std::copy(xs[t].begin(), xs[t].end(), x.data());
    lstm.StepForwardBatch(x, &state);
    for (size_t i = 0; i < H; ++i) {
      EXPECT_NEAR(state.h(0, i), caches[t].h[i], 1e-5f) << "t=" << t;
    }
  }
}

TEST(LstmTest, ForgetBiasInitializedToOne) {
  Rng rng(1);
  Lstm lstm("b", 2, 3, &rng);
  // Indirect check: zero input and zero hidden should still partially retain
  // cell state thanks to the positive forget bias. Feed a nonzero then zero.
  LstmBatchState state(3, 1);
  Matrix x(1, 2);
  x(0, 0) = 1.0f;
  x(0, 1) = -1.0f;
  lstm.StepForwardBatch(x, &state);
  const Matrix c_after_first = state.c;
  x.SetZero();
  lstm.StepForwardBatch(x, &state);
  // With forget bias 1, sigmoid(1) ~ 0.73 of the cell is retained.
  for (size_t i = 0; i < 3; ++i) {
    if (std::abs(c_after_first(0, i)) > 1e-3f) {
      EXPECT_GT(std::abs(state.c(0, i)), 0.3f * std::abs(c_after_first(0, i)));
    }
  }
}

TEST(EmbeddingTest, LookupAndGrad) {
  Rng rng(2);
  Embedding emb("e", 10, 4, &rng);
  EXPECT_EQ(emb.vocab(), 10u);
  EXPECT_EQ(emb.dim(), 4u);
  const float g[4] = {1, 2, 3, 4};
  emb.AccumulateGrad(3, g);
  emb.AccumulateGrad(3, g);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(emb.param()->grad(3, i), 2.0f * g[i]);
    EXPECT_FLOAT_EQ(emb.param()->grad(0, i), 0.0f);
  }
}

TEST(EmbeddingTest, SetRowOverwrites) {
  Rng rng(2);
  Embedding emb("e", 4, 3, &rng);
  const float v[3] = {9, 8, 7};
  emb.SetRow(2, v);
  EXPECT_FLOAT_EQ(emb.Lookup(2)[0], 9.0f);
  EXPECT_FLOAT_EQ(emb.Lookup(2)[2], 7.0f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize f(w) = 0.5 * ||w - target||^2.
  Parameter w("w", 1, 8);
  Rng rng(4);
  w.UniformInit(&rng, 1.0f);
  float target[8];
  for (auto& t : target) t = static_cast<float>(rng.Uniform(-2, 2));
  ParameterRegistry reg;
  reg.Register(&w);
  AdamConfig cfg;
  cfg.lr = 0.05f;
  AdamOptimizer opt(&reg, cfg);
  for (int step = 0; step < 500; ++step) {
    reg.ZeroGrad();
    for (size_t i = 0; i < 8; ++i) {
      w.grad.data()[i] = w.value.data()[i] - target[i];
    }
    opt.Step();
  }
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(w.value.data()[i], target[i], 1e-2f);
  }
}

// A k-major parameter stores the transpose of the row-major one, and the
// order-sensitive walks see the same logical tensor: XavierInit gives draw i
// to logical element (i / cols, i % cols), and the clip-norm sum runs in
// logical order, so both layouts clip to the same bits.
TEST(ParameterTest, KMajorStoresTheTransposeOfTheLogicalTensor) {
  Parameter row_major("w", 3, 5);
  Parameter k_major("w", 3, 5, /*kmajor=*/true);
  Rng rng_a(11), rng_b(11);
  row_major.XavierInit(&rng_a);
  k_major.XavierInit(&rng_b);
  EXPECT_EQ(k_major.rows(), 3u);
  EXPECT_EQ(k_major.cols(), 5u);
  ASSERT_EQ(k_major.value.rows(), 5u);
  ASSERT_EQ(k_major.value.cols(), 3u);
  Rng rng_g(12);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(k_major.value(c, r), row_major.value(r, c));
      EXPECT_EQ(k_major.value.data()[k_major.Offset(r, c)],
                row_major.value.data()[row_major.Offset(r, c)]);
      const float g = static_cast<float>(rng_g.Uniform(-3, 3));
      row_major.grad(r, c) = g;
      k_major.grad(c, r) = g;
    }
  }
  ParameterRegistry reg_a, reg_b;
  reg_a.Register(&row_major);
  reg_b.Register(&k_major);
  EXPECT_EQ(reg_a.ClipGradNorm(0.5f), reg_b.ClipGradNorm(0.5f));
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(k_major.grad(c, r), row_major.grad(r, c));
    }
  }
}

// The textbook Adam update, one scalar element at a time, over flat copies
// of a parameter and its moments: the reference AdamOptimizer::Step's
// vectorized row loop must reproduce bit for bit.
struct ScalarAdam {
  AdamConfig cfg;
  std::vector<float> w, m, v;
  int64_t t = 0;

  ScalarAdam(AdamConfig c, const Matrix& value)
      : cfg(c),
        w(value.data(), value.data() + value.size()),
        m(value.size(), 0.0f),
        v(value.size(), 0.0f) {}

  void Step(const Matrix& grad) {
    ++t;
    const float bias1 = 1.0f - std::pow(cfg.beta1, static_cast<float>(t));
    const float bias2 = 1.0f - std::pow(cfg.beta2, static_cast<float>(t));
    for (size_t i = 0; i < w.size(); ++i) {
      const float g = grad.data()[i] + cfg.weight_decay * w[i];
      m[i] = cfg.beta1 * m[i] + (1.0f - cfg.beta1) * g;
      v[i] = cfg.beta2 * v[i] + (1.0f - cfg.beta2) * g * g;
      const float mhat = m[i] / bias1;
      const float vhat = v[i] / bias2;
      w[i] -= cfg.lr * mhat / (std::sqrt(vhat) + cfg.eps);
    }
  }
};

void ExpectBitEqual(const std::vector<float>& want, const Matrix& got,
                    const char* what, size_t k, int step) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(want[i]),
              std::bit_cast<uint32_t>(got.data()[i]))
        << what << " of param " << k << " element " << i << " step " << step;
  }
}

TEST(AdamTest, StepMatchesScalarReferenceBitwise) {
  // A row-sparse table 37 wide (no multiple of a vector width, so every row
  // ends in a scalar tail) and an odd-sized dense parameter, under a
  // weight-decay-free optimizer (the active-row path for the table) and a
  // decaying one (the dense path for both). The dense reference also
  // steps untouched table rows, which the active-row skip must leave as
  // exact fixed points.
  for (const float weight_decay : {0.0f, 0.01f}) {
    Parameter table("table", 40, 37);
    Parameter dense("dense", 3, 17);
    table.EnableRowSparseGrads();
    Rng rng(21);
    table.UniformInit(&rng, 0.5f);
    dense.UniformInit(&rng, 0.5f);
    ParameterRegistry reg;
    reg.Register(&table);
    reg.Register(&dense);
    AdamConfig cfg;
    cfg.lr = 0.01f;
    cfg.weight_decay = weight_decay;
    AdamOptimizer opt(&reg, cfg);
    std::vector<ScalarAdam> ref;
    for (const auto* p : reg.params()) ref.emplace_back(cfg, p->value);

    for (int step = 1; step <= 50; ++step) {
      reg.ZeroGrad();
      // A few different table rows each step, some gradients exactly 0.
      for (int touch = 0; touch < 3; ++touch) {
        const size_t r = rng.UniformInt(uint64_t{40});
        table.TouchGradRow(r);
        for (size_t c = 0; c < 37; ++c) {
          table.grad(r, c) =
              c % 5 == 0 ? 0.0f : static_cast<float>(rng.Uniform(-2, 2));
        }
      }
      for (size_t i = 0; i < dense.grad.size(); ++i) {
        dense.grad.data()[i] = static_cast<float>(rng.Gaussian() * 0.1);
      }
      opt.Step();
      for (size_t k = 0; k < reg.params().size(); ++k) {
        ref[k].Step(reg.params()[k]->grad);
        ExpectBitEqual(ref[k].w, reg.params()[k]->value, "value", k, step);
        ExpectBitEqual(ref[k].m, opt.first_moment(k), "m", k, step);
        ExpectBitEqual(ref[k].v, opt.second_moment(k), "v", k, step);
      }
    }
  }
}

TEST(AdamTest, LearningRateMutable) {
  Parameter w("w", 1, 1);
  ParameterRegistry reg;
  reg.Register(&w);
  AdamOptimizer opt(&reg, {});
  opt.set_lr(0.5f);
  EXPECT_FLOAT_EQ(opt.lr(), 0.5f);
}

}  // namespace
}  // namespace rl4oasd::nn
