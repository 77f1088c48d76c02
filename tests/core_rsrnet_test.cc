// RSRNet tests: shapes, training reduces loss, streaming/sequence
// equivalence, and embedding loading.
#include "core/rsrnet.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace rl4oasd::core {
namespace {

RsrNetConfig TinyConfig(size_t num_edges) {
  RsrNetConfig cfg;
  cfg.num_edges = num_edges;
  cfg.embed_dim = 8;
  cfg.nrf_dim = 8;
  cfg.hidden_dim = 8;
  return cfg;
}

/// The small config whose registry layout and weights the pins below fix.
RsrNetConfig PinnedConfig() {
  RsrNetConfig cfg = TinyConfig(20);
  cfg.embed_dim = 6;
  cfg.nrf_dim = 4;
  cfg.hidden_dim = 5;
  return cfg;
}

/// FNV-1a over the bytes of every parameter's values, each tensor in
/// logical row-major order (the order bundles store), whatever its storage
/// layout.
uint64_t HashLogicalValues(const nn::ParameterRegistry& registry) {
  uint64_t hash = 14695981039346656037ULL;
  for (const nn::Parameter* p : registry.params()) {
    for (size_t r = 0; r < p->rows(); ++r) {
      for (size_t c = 0; c < p->cols(); ++c) {
        const float v = p->value.data()[p->Offset(r, c)];
        const auto* bytes = reinterpret_cast<const unsigned char*>(&v);
        for (size_t i = 0; i < sizeof(float); ++i) {
          hash = (hash ^ bytes[i]) * 1099511628211ULL;
        }
      }
    }
  }
  return hash;
}

TEST(RsrNetTest, ForwardShapes) {
  RsrNet net(TinyConfig(20));
  const std::vector<traj::EdgeId> edges = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> nrf = {0, 0, 1, 1, 0};
  const auto fwd = net.Forward(edges, nrf);
  ASSERT_EQ(fwd.z.size(), 5u);
  ASSERT_EQ(fwd.probs.size(), 5u);
  for (const auto& z : fwd.z) EXPECT_EQ(z.size(), net.z_dim());
  for (const auto& p : fwd.probs) {
    EXPECT_NEAR(p[0] + p[1], 1.0f, 1e-5f);
    EXPECT_GE(p[0], 0.0f);
    EXPECT_GE(p[1], 0.0f);
  }
}

TEST(RsrNetTest, NrfBitChangesRepresentation) {
  RsrNet net(TinyConfig(20));
  const std::vector<traj::EdgeId> edges = {1, 2, 3};
  const auto a = net.Forward(edges, {0, 0, 0});
  const auto b = net.Forward(edges, {0, 1, 0});
  // The NRF half of z at position 1 must differ.
  bool differs = false;
  for (size_t i = 0; i < net.z_dim(); ++i) {
    if (a.z[1][i] != b.z[1][i]) differs = true;
  }
  EXPECT_TRUE(differs);
  // And the LSTM half (first hidden_dim dims) is identical since NRF does
  // not go through the LSTM.
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(a.z[1][i], b.z[1][i]);
  }
}

TEST(RsrNetTest, TrainingReducesLoss) {
  RsrNet net(TinyConfig(30));
  // A fixed supervised task: label 1 exactly on a contiguous span.
  const std::vector<traj::EdgeId> edges = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<uint8_t> nrf = {0, 0, 1, 1, 1, 0, 0, 0};
  const std::vector<uint8_t> labels = {0, 0, 1, 1, 1, 0, 0, 0};
  const double before = net.Loss(edges, nrf, labels);
  for (int i = 0; i < 60; ++i) net.TrainStep(edges, nrf, labels);
  const double after = net.Loss(edges, nrf, labels);
  EXPECT_LT(after, before * 0.5);
  EXPECT_LT(after, 0.3);
}

TEST(RsrNetTest, TrainStepReturnsLoss) {
  RsrNet net(TinyConfig(10));
  const std::vector<traj::EdgeId> edges = {0, 1, 2};
  const std::vector<uint8_t> nrf = {0, 1, 0};
  const std::vector<uint8_t> labels = {0, 1, 0};
  const double loss = net.TrainStep(edges, nrf, labels);
  EXPECT_GT(loss, 0.0);
  EXPECT_NEAR(loss, -std::log(0.5) /*untrained ~ uniform*/, 0.7);
}

TEST(RsrNetTest, StreamingMatchesSequenceForward) {
  RsrNet net(TinyConfig(25));
  const std::vector<traj::EdgeId> edges = {3, 7, 9, 11, 2};
  const std::vector<uint8_t> nrf = {0, 1, 1, 0, 0};
  const auto fwd = net.Forward(edges, nrf);
  RsrStream stream(8);
  for (size_t i = 0; i < edges.size(); ++i) {
    std::array<float, 2> probs;
    const auto z = net.StepForward(edges[i], nrf[i], &stream, &probs);
    ASSERT_EQ(z.size(), fwd.z[i].size());
    for (size_t d = 0; d < z.size(); ++d) {
      EXPECT_NEAR(z[d], fwd.z[i][d], 1e-5f) << "step " << i << " dim " << d;
    }
    EXPECT_NEAR(probs[0], fwd.probs[i][0], 1e-5f);
  }
}

TEST(RsrNetTest, LoadTcfEmbeddings) {
  RsrNet net(TinyConfig(12));
  nn::Matrix table(12, 8);
  for (size_t i = 0; i < table.size(); ++i) {
    table.data()[i] = static_cast<float>(i) * 0.01f;
  }
  net.LoadTcfEmbeddings(table);
  // The first LSTM input is the embedding of the edge; verify indirectly by
  // determinism: two nets loaded with the same table produce identical z.
  RsrNet net2(TinyConfig(12));
  net2.LoadTcfEmbeddings(table);
  const std::vector<traj::EdgeId> edges = {1, 5, 9};
  const std::vector<uint8_t> nrf = {0, 0, 0};
  const auto a = net.Forward(edges, nrf);
  const auto b = net2.Forward(edges, nrf);
  for (size_t d = 0; d < a.z[2].size(); ++d) {
    EXPECT_FLOAT_EQ(a.z[2][d], b.z[2][d]);
  }
}

TEST(RsrNetTest, LossOnEmptyIsZero) {
  RsrNet net(TinyConfig(5));
  EXPECT_DOUBLE_EQ(net.Loss({}, {}, {}), 0.0);
  EXPECT_DOUBLE_EQ(net.TrainStep({}, {}, {}), 0.0);
}

TEST(RsrNetTest, DeterministicAcrossInstances) {
  RsrNet a(TinyConfig(15));
  RsrNet b(TinyConfig(15));
  const std::vector<traj::EdgeId> edges = {1, 2, 3, 4};
  const std::vector<uint8_t> nrf = {0, 1, 0, 1};
  const auto fa = a.Forward(edges, nrf);
  const auto fb = b.Forward(edges, nrf);
  for (size_t i = 0; i < fa.probs.size(); ++i) {
    EXPECT_FLOAT_EQ(fa.probs[i][0], fb.probs[i][0]);
  }
}

TEST(RsrNetTest, RegistryLayoutAndInitIsPinned) {
  // Model bundles store the registry as (name, shape, values) in this
  // order, and the golden regression depends on the construction-time RNG
  // draws. Pinning names, shapes, order and a hash of the initial weights
  // shows that a bundle saved by an earlier build still loads into the
  // same tensors with the same values. Shapes are logical (the LSTM gate
  // weights are stored transposed).
  RsrNet net(PinnedConfig());
  struct Expected {
    const char* name;
    size_t rows;
    size_t cols;
  };
  const Expected expected[] = {
      {"rsr.tcf", 20, 6},      // num_edges x E
      {"rsr.nrf", 2, 4},       // 2 x N
      {"rsr.lstm.wx", 20, 6},  // 4H x E
      {"rsr.lstm.wh", 20, 5},  // 4H x H
      {"rsr.lstm.b", 1, 20},   // 1 x 4H
      {"rsr.head.w", 2, 9},    // 2 x (H + N)
      {"rsr.head.b", 1, 2},
  };
  const auto& params = net.registry()->params();
  ASSERT_EQ(params.size(), std::size(expected));
  for (size_t k = 0; k < params.size(); ++k) {
    EXPECT_EQ(params[k]->name, expected[k].name);
    EXPECT_EQ(params[k]->rows(), expected[k].rows) << expected[k].name;
    EXPECT_EQ(params[k]->cols(), expected[k].cols) << expected[k].name;
  }
  EXPECT_EQ(HashLogicalValues(*net.registry()), 0x8a4087378abb8d95ULL);
}

TEST(RsrNetTest, OneTrainStepIsPinned) {
  // One TrainStep from the pinned init runs BPTT, the clip-norm sum (a tiny
  // clip threshold makes it rescale every gradient) and an Adam step. The
  // resulting weights, hashed in logical order, must not depend on how the
  // parameters are stored.
  RsrNetConfig cfg = PinnedConfig();
  cfg.grad_clip = 1e-3f;
  RsrNet net(cfg);
  const std::vector<traj::EdgeId> edges = {3, 7, 8, 12, 15, 16, 19, 2};
  const std::vector<uint8_t> nrf = {0, 0, 1, 1, 1, 0, 0, 0};
  const std::vector<uint8_t> labels = {0, 0, 1, 1, 1, 1, 0, 0};
  net.TrainStep(edges, nrf, labels);
  EXPECT_EQ(HashLogicalValues(*net.registry()), 0xf6a14df44116a69bULL);
}

}  // namespace
}  // namespace rl4oasd::core
