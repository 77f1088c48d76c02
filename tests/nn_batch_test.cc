// Equivalence property tests for the streaming inference step, which runs
// at every width B >= 1 through the GEMM-backed kernels: the GEMM against a
// naive triple loop and (at n == 1) against MatVec, the batched LSTM step
// against the sequence forward, batched Linear forward and embedding gather
// against their single-sample forms, and RSRNet's batched step against both
// its width-1 call and RsrNet::Forward over each stream's history.
//
// Equivalence contract (see nn::Gemm): every kernel adds each output
// element's products in the same ascending-k order as the scalar dot loops,
// so results are bit-identical on one toolchain. The LSTM step and
// GemmTest.SingleColumnMatchesMatVec assert exactly that; the other cases
// allow 1e-6 relative.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/rsrnet.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/tensor.h"

namespace rl4oasd::nn {
namespace {

constexpr float kRelTol = 1e-6f;

void ExpectClose(float batched, float scalar, const std::string& what) {
  const float tol = kRelTol * std::max(1.0f, std::fabs(scalar));
  EXPECT_NEAR(batched, scalar, tol) << what;
}

Vec RandomVec(size_t n, Rng* rng, double scale = 1.0) {
  Vec v(n);
  for (float& x : v) x = static_cast<float>(rng->Uniform(-scale, scale));
  return v;
}

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<float>(rng->Uniform(-1.0, 1.0));
    }
  }
  return m;
}

TEST(GemmTest, MatchesNaiveTripleLoop) {
  Rng rng(101);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t m = 1 + rng.UniformInt(70);
    const size_t k = 1 + rng.UniformInt(130);
    const size_t n = 1 + rng.UniformInt(50);  // crosses the register tiles
    const Matrix a = RandomMatrix(m, k, &rng);
    const Matrix b = RandomMatrix(k, n, &rng);
    Matrix c;
    MatMul(a, b, &c);
    ASSERT_EQ(c.rows(), m);
    ASSERT_EQ(c.cols(), n);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        float ref = 0.0f;
        for (size_t kk = 0; kk < k; ++kk) ref += a(i, kk) * b(kk, j);
        ExpectClose(c(i, j), ref, "C(" + std::to_string(i) + "," +
                                      std::to_string(j) + ")");
      }
    }
    // Accumulate mode adds the complete ascending-k product chain onto the
    // existing C in one step (the reference mirrors that association —
    // "2 * C" or summing into C element-wise would differ by more than
    // rounding tolerance at large k).
    Matrix c2 = c;
    MatMulAccum(a, b, &c2);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        float chain = 0.0f;
        for (size_t kk = 0; kk < k; ++kk) chain += a(i, kk) * b(kk, j);
        ExpectClose(c2(i, j), c(i, j) + chain, "accumulated C");
      }
    }
  }
}

TEST(GemmTest, SingleColumnMatchesMatVec) {
  // With n == 1 the GEMM runs MatVec's per-row ascending-k chain — the
  // width-1 streaming step — so the two agree bit for bit, in both modes.
  Rng rng(77);
  const Matrix a = RandomMatrix(33, 129, &rng);
  const Vec x = RandomVec(129, &rng);
  Matrix xm(129, 1);
  for (size_t i = 0; i < x.size(); ++i) xm(i, 0) = x[i];
  Vec y(33);
  MatVec(a, x.data(), y.data());
  Matrix c;
  MatMul(a, xm, &c);
  for (size_t i = 0; i < y.size(); ++i) {
    EXPECT_EQ(c(i, 0), y[i]) << "row " << i;
  }
  // Accumulate mode adds the finished chain onto C in one step.
  const Vec c0 = RandomVec(33, &rng);
  for (size_t i = 0; i < c0.size(); ++i) c(i, 0) = c0[i];
  MatMulAccum(a, xm, &c);
  for (size_t i = 0; i < y.size(); ++i) {
    EXPECT_EQ(c(i, 0), c0[i] + y[i]) << "accumulated row " << i;
  }
  // A strided column (ldb > 1) takes the same chain.
  const Matrix wide = RandomMatrix(129, 5, &rng);
  Vec col(129);
  for (size_t i = 0; i < col.size(); ++i) col[i] = wide(i, 3);
  MatVec(a, col.data(), y.data());
  Vec strided(33);
  Gemm(a.data(), 33, 129, 129, wide.data() + 3, 1, 5, strided.data(), 1,
       /*accumulate=*/false);
  EXPECT_EQ(strided, y);
}

TEST(TensorBatchTest, SoftmaxColumnsMatchesPerColumnSoftmax) {
  Rng rng(5);
  Matrix logits = RandomMatrix(4, 9, &rng);
  Matrix batched = logits;
  SoftmaxColumnsInPlace(&batched);
  for (size_t j = 0; j < logits.cols(); ++j) {
    float col[4];
    for (size_t r = 0; r < 4; ++r) col[r] = logits(r, j);
    SoftmaxInPlace(col, 4);
    for (size_t r = 0; r < 4; ++r) {
      ExpectClose(batched(r, j), col[r], "column " + std::to_string(j));
    }
  }
}

TEST(EmbeddingBatchTest, LookupBatchMatchesLookup) {
  Rng rng(9);
  Embedding embed("t.embed", 23, 7, &rng);
  for (const size_t batch : {size_t{1}, size_t{2}, size_t{13}}) {
    std::vector<size_t> ids(batch);
    for (size_t b = 0; b < batch; ++b) ids[b] = rng.UniformInt(23);
    Matrix out;
    embed.LookupBatch(ids, &out);
    ASSERT_EQ(out.rows(), batch);
    ASSERT_EQ(out.cols(), 7u);
    for (size_t b = 0; b < batch; ++b) {
      const float* row = embed.Lookup(ids[b]);
      for (size_t r = 0; r < 7; ++r) {
        EXPECT_EQ(out(b, r), row[r]) << "id " << ids[b] << " dim " << r;
      }
    }
  }
}

TEST(LinearBatchTest, ForwardBatchMatchesForward) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t in = 1 + rng.UniformInt(60);
    const size_t out_dim = 1 + rng.UniformInt(20);
    const size_t batch = 1 + rng.UniformInt(40);
    Linear layer("t.lin", in, out_dim, &rng);
    const Matrix x = RandomMatrix(in, batch, &rng);
    Matrix out;
    layer.ForwardBatch(x, &out);
    Vec xcol(in);
    Vec ycol(out_dim);
    for (size_t b = 0; b < batch; ++b) {
      for (size_t r = 0; r < in; ++r) xcol[r] = x(r, b);
      layer.Forward(xcol.data(), ycol.data());
      for (size_t r = 0; r < out_dim; ++r) {
        ExpectClose(out(r, b), ycol[r], "sample " + std::to_string(b));
      }
    }
  }
}

// Drives kSteps batched steps from the zero state (so every step after the
// first carries a nonzero state) and checks every row after every step
// against an independent reference: Lstm::Forward over that row's input
// sequence. The contract is bit-identity, so the comparison is exact. The
// widths are fixed, not drawn, so every narrow wave (1-9) and two wide ones
// (16, 33) run on every invocation.
TEST(LstmBatchTest, StepForwardBatchMatchesStreaming) {
  Rng rng(21);
  constexpr size_t kSteps = 5;
  for (const size_t batch : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33}) {
    const size_t input_dim = 1 + rng.UniformInt(40);
    const size_t hidden = 1 + rng.UniformInt(40);
    Lstm cell("t.cell", input_dim, hidden, &rng);
    std::vector<Matrix> xs;
    for (size_t step = 0; step < kSteps; ++step) {
      xs.push_back(RandomMatrix(batch, input_dim, &rng));
    }
    std::vector<std::vector<LstmStepCache>> reference(batch);
    for (size_t b = 0; b < batch; ++b) {
      std::vector<const float*> inputs;
      for (size_t step = 0; step < kSteps; ++step) {
        inputs.push_back(xs[step].Row(b));
      }
      reference[b] = cell.Forward(inputs);
    }
    LstmBatchState batched(hidden, batch);
    ASSERT_EQ(batched.h.rows(), batch);
    ASSERT_EQ(batched.h.cols(), hidden);
    for (size_t step = 0; step < kSteps; ++step) {
      cell.StepForwardBatch(xs[step], &batched);
      for (size_t b = 0; b < batch; ++b) {
        const LstmStepCache& ref = reference[b][step];
        const std::string where = "B=" + std::to_string(batch) + " sample " +
                                  std::to_string(b) + " step " +
                                  std::to_string(step);
        for (size_t r = 0; r < hidden; ++r) {
          EXPECT_EQ(batched.h(b, r), ref.h[r]) << "h " << where;
          EXPECT_EQ(batched.c(b, r), ref.c[r]) << "c " << where;
        }
      }
    }
  }
}

TEST(LstmBatchStateTest, GatherScatterRoundTrips) {
  Rng rng(31);
  const size_t H = 11;
  const size_t B = 5;
  std::vector<LstmState> states(B, LstmState(H));
  for (auto& s : states) {
    s.h = RandomVec(H, &rng);
    s.c = RandomVec(H, &rng);
  }
  std::vector<const LstmState*> in;
  std::vector<LstmState*> out;
  for (auto& s : states) {
    in.push_back(&s);
    out.push_back(&s);
  }
  LstmBatchState batch;
  batch.Gather(in, H);
  // Batch-major: row b is stream b's state.
  ASSERT_EQ(batch.h.rows(), B);
  ASSERT_EQ(batch.h.cols(), H);
  for (size_t b = 0; b < B; ++b) {
    EXPECT_EQ(Vec(batch.h.Row(b), batch.h.Row(b) + H), states[b].h);
    EXPECT_EQ(Vec(batch.c.Row(b), batch.c.Row(b) + H), states[b].c);
  }
  const std::vector<LstmState> before = states;
  for (auto& s : states) s.Reset();
  batch.Scatter(out);
  for (size_t b = 0; b < B; ++b) {
    EXPECT_EQ(states[b].h, before[b].h);
    EXPECT_EQ(states[b].c, before[b].c);
  }
}

// Gather and Scatter check both vectors of every state: a short c would be
// read (and written) out of bounds.
TEST(LstmBatchStateDeathTest, WrongSizedStateAborts) {
  const size_t H = 6;
  LstmState good(H);
  LstmState short_c(H);
  short_c.c.resize(H - 1);
  const std::vector<const LstmState*> in = {&good, &short_c};
  LstmBatchState batch;
  EXPECT_DEATH(batch.Gather(in, H),
               "LSTM state of stream 1 has h/c lengths 6/5, expected 6");
  const std::vector<const LstmState*> ok = {&good, &good};
  batch.Gather(ok, H);
  const std::vector<LstmState*> out = {&good, &short_c};
  EXPECT_DEATH(batch.Scatter(out),
               "LSTM state of stream 1 has h/c lengths 6/5, expected 6");
}

TEST(RsrNetBatchTest, StepForwardBatchMatchesScalar) {
  // Persistent per-trip streams advanced in waves of varying composition —
  // the ragged final batch of a draining ingest wave is just a smaller B —
  // against twin streams advanced one point at a time (StepForward, the
  // width-1 call) and against RsrNet::Forward over each stream's history.
  core::RsrNetConfig cfg;
  cfg.num_edges = 50;
  cfg.embed_dim = 12;
  cfg.nrf_dim = 6;
  cfg.hidden_dim = 10;
  core::RsrNet net(cfg);

  Rng rng(55);
  constexpr size_t kStreams = 9;
  std::vector<core::RsrStream> batched_streams(kStreams);
  std::vector<core::RsrStream> scalar_streams(kStreams);
  std::vector<std::vector<traj::EdgeId>> edge_history(kStreams);
  std::vector<std::vector<uint8_t>> nrf_history(kStreams);
  for (int step = 0; step < 6; ++step) {
    // A random subset of streams receives a point this "wave".
    std::vector<size_t> wave;
    for (size_t i = 0; i < kStreams; ++i) {
      if (rng.Bernoulli(0.7)) wave.push_back(i);
    }
    if (wave.empty()) wave.push_back(0);
    const size_t B = wave.size();
    std::vector<traj::EdgeId> edges(B);
    std::vector<uint8_t> nrf(B);
    std::vector<core::RsrStream*> streams(B);
    for (size_t b = 0; b < B; ++b) {
      edges[b] = static_cast<traj::EdgeId>(rng.UniformInt(cfg.num_edges));
      nrf[b] = rng.Bernoulli(0.5) ? 1 : 0;
      streams[b] = &batched_streams[wave[b]];
    }
    Matrix z;
    Matrix probs;
    net.StepForwardBatch(edges, nrf, streams, &z, &probs);
    ASSERT_EQ(z.rows(), net.z_dim());
    ASSERT_EQ(z.cols(), B);
    for (size_t b = 0; b < B; ++b) {
      std::array<float, 2> scalar_probs{};
      const Vec scalar_z = net.StepForward(edges[b], nrf[b],
                                           &scalar_streams[wave[b]],
                                           &scalar_probs);
      for (size_t r = 0; r < scalar_z.size(); ++r) {
        ExpectClose(z(r, b), scalar_z[r],
                    "z stream " + std::to_string(wave[b]) + " step " +
                        std::to_string(step));
      }
      ExpectClose(probs(0, b), scalar_probs[0], "p0");
      ExpectClose(probs(1, b), scalar_probs[1], "p1");
      const auto& bs = batched_streams[wave[b]].state;
      const auto& ss = scalar_streams[wave[b]].state;
      ASSERT_EQ(bs.h.size(), ss.h.size());
      for (size_t r = 0; r < ss.h.size(); ++r) {
        ExpectClose(bs.h[r], ss.h[r], "carried h");
        ExpectClose(bs.c[r], ss.c[r], "carried c");
      }
      // The sequence forward over the stream's whole history ends where
      // the streaming steps are.
      edge_history[wave[b]].push_back(edges[b]);
      nrf_history[wave[b]].push_back(nrf[b]);
      const core::RsrForward fwd =
          net.Forward(edge_history[wave[b]], nrf_history[wave[b]]);
      for (size_t r = 0; r < net.z_dim(); ++r) {
        ExpectClose(z(r, b), fwd.z.back()[r],
                    "z vs Forward, stream " + std::to_string(wave[b]));
      }
      ExpectClose(probs(0, b), fwd.probs.back()[0], "p0 vs Forward");
      ExpectClose(probs(1, b), fwd.probs.back()[1], "p1 vs Forward");
    }
  }
}

// RsrNet sizes only fresh (empty) streams. Any other stream whose state is
// not hidden_dim long is a caller bug, and the step aborts instead of
// silently restarting the trip's recurrent state (a short h) or reading and
// writing out of bounds (a short c).
TEST(RsrNetBatchDeathTest, WrongSizedStreamStateAborts) {
  core::RsrNetConfig cfg;
  cfg.num_edges = 20;
  cfg.embed_dim = 4;
  cfg.nrf_dim = 3;
  cfg.hidden_dim = 5;
  core::RsrNet net(cfg);
  const traj::EdgeId edge = 3;

  core::RsrStream fresh;  // empty: sized by the step
  net.StepForward(edge, 0, &fresh, nullptr);
  EXPECT_EQ(fresh.state.h.size(), 5u);
  EXPECT_EQ(fresh.state.c.size(), 5u);

  core::RsrStream short_h(5);
  short_h.state.h.resize(4);
  EXPECT_DEATH(net.StepForward(edge, 0, &short_h, nullptr),
               "LSTM state of stream 0 has h/c lengths 4/5, expected 5");

  core::RsrStream short_c(5);
  short_c.state.c.resize(2);
  core::RsrStream* wave[] = {&fresh, &short_c};
  const traj::EdgeId edges[] = {edge, edge};
  const uint8_t nrf[] = {0, 1};
  Matrix z;
  EXPECT_DEATH(net.StepForwardBatch(edges, nrf, wave, &z),
               "LSTM state of stream 1 has h/c lengths 5/2, expected 5");
}

}  // namespace
}  // namespace rl4oasd::nn
