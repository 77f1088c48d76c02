// Microbenchmarks of the hot paths behind the paper's efficiency claims
// (google-benchmark): policy action, preprocessor lookups, discrete-Frechet
// row update, and bounded shortest paths — plus width sweeps (B in {1, 8,
// 32, 128}) of the one streaming model step at each layer (LSTM cell,
// RSRNet step, detector FeedBatch), reported per *point*. Width 1 is the
// single-trip step that Session::Feed and FleetMonitor::Feed run, so
// `/1` rows are the per-point costs of the paper's Fig. 3. The two training
// kernels behind Table V's embed and RSRNet warm-start phases (negative
// sampling, the Adam step) have a row each.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/detector.h"
#include "io/checkpoint.h"
#include "io/model_io.h"
#include "nn/adam.h"
#include "nn/lstm.h"
#include "roadnet/shortest_path.h"
#include "serve/fleet.h"

using namespace rl4oasd;

namespace {

struct MicroFixture {
  bench::CityData city = bench::MakeChengduLike(12);
  core::Rl4Oasd model{&city.net, [] {
                        auto cfg = bench::TunedConfig();
                        cfg.pretrain_samples = 80;
                        cfg.pretrain_epochs = 2;
                        cfg.joint_samples = 50;
                        return cfg;
                      }()};
  traj::MapMatchedTrajectory long_traj;

  MicroFixture() {
    model.Fit(city.train);
    for (const auto& lt : city.test.trajs()) {
      if (lt.traj.edges.size() > long_traj.edges.size()) long_traj = lt.traj;
    }
  }
};

MicroFixture& Fixture() {
  static MicroFixture f;
  return f;
}

void BM_PolicyAction(benchmark::State& state) {
  auto& f = Fixture();
  nn::Vec z(f.model.rsrnet().z_dim(), 0.1f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model.asdnet().GreedyAction(z.data(), 0));
  }
}
BENCHMARK(BM_PolicyAction);

void BM_TransitionFractionLookup(benchmark::State& state) {
  auto& f = Fixture();
  const auto& t = f.long_traj;
  size_t i = 1;
  for (auto _ : state) {
    if (i + 1 >= t.edges.size()) i = 1;
    benchmark::DoNotOptimize(f.model.preprocessor().TransitionFractionAt(
        t.sd(), t.start_time, t.edges[i - 1], t.edges[i]));
    ++i;
  }
}
BENCHMARK(BM_TransitionFractionLookup);

void BM_FrechetRow(benchmark::State& state) {
  auto& f = Fixture();
  baselines::CtssDetector ctss(&f.city.net);
  ctss.Fit(f.city.train);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctss.Scores(f.long_traj));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.long_traj.edges.size()));
}
BENCHMARK(BM_FrechetRow);

void BM_ShortestPathBetweenEdges(benchmark::State& state) {
  auto& f = Fixture();
  const auto& t = f.long_traj;
  for (auto _ : state) {
    benchmark::DoNotOptimize(roadnet::ShortestPathBetweenEdges(
        f.city.net, t.edges.front(), t.edges.back()));
  }
}
BENCHMARK(BM_ShortestPathBetweenEdges);

void BM_RsrTrainStep(benchmark::State& state) {
  auto& f = Fixture();
  const auto& t = f.long_traj;
  const auto nrf = f.model.preprocessor().NormalRouteFeatures(t);
  const auto noisy = f.model.preprocessor().NoisyLabels(t);
  // A scratch network so training does not perturb the shared fixture.
  auto cfg = f.model.rsrnet().config();
  core::RsrNet net(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.TrainStep(t.edges, nrf, noisy));
  }
}
BENCHMARK(BM_RsrTrainStep);

void BM_CategoricalSample(benchmark::State& state) {
  // One skip-gram negative draw: word2vec's smoothed unigram
  // pow(count + 1, 0.75) over the network's edges, counted on the training
  // trajectories (SkipGramTrainer's distribution).
  auto& f = Fixture();
  std::vector<double> unigram(f.city.net.NumEdges(), 0.0);
  for (const auto& lt : f.city.train.trajs()) {
    for (auto e : lt.traj.edges) unigram[e] += 1.0;
  }
  for (double& u : unigram) u = std::pow(u + 1.0, 0.75);
  CategoricalSampler sampler(unigram);
  Rng rng(5);
  for (auto _ : state) benchmark::DoNotOptimize(sampler.Sample(&rng));
  state.SetItemsProcessed(state.iterations());
  state.counters["n"] = static_cast<double>(unigram.size());
}
BENCHMARK(BM_CategoricalSample);

void BM_AdamStep(benchmark::State& state) {
  // One Adam step over an RSRNet-shaped registry (row-sparse TCF and NRF
  // embedding tables, the LSTM, the head) with a warm active set: every
  // edge of the training trajectories has been touched, as after a
  // warm-start epoch. Items are element updates.
  auto& f = Fixture();
  core::RsrNet net(f.model.rsrnet().config());
  nn::ParameterRegistry* reg = net.registry();
  nn::AdamOptimizer opt(reg, {});
  int64_t elements = 0;
  for (auto* p : reg->params()) {
    if (!p->row_sparse) {
      std::fill(p->grad.data(), p->grad.data() + p->grad.size(), 0.01f);
      elements += static_cast<int64_t>(p->grad.size());
      continue;
    }
    const size_t rows = p->grad.rows();
    for (const auto& lt : f.city.train.trajs()) {
      for (auto e : lt.traj.edges) {
        const size_t r = static_cast<size_t>(e) % rows;
        p->TouchGradRow(r);
        std::fill(p->grad.Row(r), p->grad.Row(r) + p->grad.cols(), 0.01f);
      }
    }
    for (uint64_t word : p->touched_bits) {
      elements += std::popcount(word) * static_cast<int64_t>(p->grad.cols());
    }
  }
  for (auto _ : state) {
    opt.Step();
    benchmark::DoNotOptimize(reg->params().front()->value.data());
  }
  state.SetItemsProcessed(state.iterations() * elements);
}
BENCHMARK(BM_AdamStep);

void BM_FleetFeed(benchmark::State& state) {
  // Per-point cost through the full service layer (shard lock + session +
  // run bookkeeping) vs the bare detector Feed above.
  auto& f = Fixture();
  serve::FleetMonitor monitor(&f.model, {}, nullptr);
  const auto& t = f.long_traj;
  (void)monitor.StartTrip(1, t.sd(), t.start_time);
  size_t i = 0;
  for (auto _ : state) {
    if (i == t.edges.size()) {
      state.PauseTiming();
      (void)monitor.EndTrip(1);
      (void)monitor.StartTrip(1, t.sd(), t.start_time);
      i = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(monitor.Feed(1, t.edges[i++], t.start_time));
  }
}
BENCHMARK(BM_FleetFeed);

void BM_LstmStepBatch(benchmark::State& state) {
  // The raw LSTM step: one fused (B x I) x (I x 4H) step for B streams.
  // items == points, so time-per-item is the per-point cost.
  Rng rng(3);
  auto& f = Fixture();
  const size_t embed = f.model.rsrnet().config().embed_dim;
  const size_t hidden = f.model.rsrnet().config().hidden_dim;
  const auto B = static_cast<size_t>(state.range(0));
  nn::Lstm lstm("micro", embed, hidden, &rng);
  nn::LstmBatchState batch_state(hidden, B);
  nn::Matrix x(B, embed, 0.1f);
  for (auto _ : state) {
    lstm.StepForwardBatch(x, &batch_state);
    benchmark::DoNotOptimize(batch_state.h.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(B));
}
BENCHMARK(BM_LstmStepBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128);

void BM_RsrStepBatch(benchmark::State& state) {
  // Full RSRNet streaming step: embedding gather, fused recurrent GEMMs,
  // state scatter, z assembly. Width 1 is RsrNet::StepForward's cost.
  auto& f = Fixture();
  const auto B = static_cast<size_t>(state.range(0));
  std::vector<core::RsrStream> streams(B);
  std::vector<core::RsrStream*> ptrs;
  ptrs.reserve(B);
  for (auto& s : streams) ptrs.push_back(&s);
  const auto& edges = f.long_traj.edges;
  std::vector<traj::EdgeId> batch_edges(B);
  std::vector<uint8_t> nrf(B, 0);
  nn::Matrix z;
  size_t i = 0;
  for (auto _ : state) {
    for (size_t b = 0; b < B; ++b) {
      batch_edges[b] = edges[(i + b) % edges.size()];
    }
    f.model.rsrnet().StepForwardBatch(batch_edges, nrf, ptrs, &z);
    benchmark::DoNotOptimize(z.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(B));
}
BENCHMARK(BM_RsrStepBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128);

void BM_DetectorFeedBatch(benchmark::State& state) {
  // The detector's per-point step: B concurrent sessions advanced one
  // segment per call through OnlineDetector::FeedBatch. Width 1 is
  // Session::Feed's cost.
  auto& f = Fixture();
  const auto& t = f.long_traj;
  const auto B = static_cast<size_t>(state.range(0));
  std::vector<core::OnlineDetector::Session> sessions;
  std::vector<core::OnlineDetector::Session*> ptrs;
  auto reset = [&] {
    sessions.clear();
    ptrs.clear();
    for (size_t b = 0; b < B; ++b) {
      sessions.push_back(f.model.StartSession(t.sd(), t.start_time));
    }
    for (auto& s : sessions) ptrs.push_back(&s);
  };
  reset();
  std::vector<traj::EdgeId> edges(B);
  size_t i = 0;
  for (auto _ : state) {
    if (i == t.edges.size()) {
      state.PauseTiming();
      reset();
      i = 0;
      state.ResumeTiming();
    }
    std::fill(edges.begin(), edges.end(), t.edges[i++]);
    f.model.detector().FeedBatch(ptrs, edges);
    benchmark::DoNotOptimize(sessions.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(B));
}
BENCHMARK(BM_DetectorFeedBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128);

void BM_GemmKernel(benchmark::State& state) {
  // The raw blocked GEMM at the LSTM gate shape (B x I) * (I x 4H).
  auto& f = Fixture();
  const size_t embed = f.model.rsrnet().config().embed_dim;
  const size_t hidden = f.model.rsrnet().config().hidden_dim;
  const auto B = static_cast<size_t>(state.range(0));
  nn::Matrix a(B, embed, 0.1f);
  nn::Matrix b(embed, 4 * hidden, 0.01f);
  nn::Matrix c;
  for (auto _ : state) {
    nn::MatMul(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(B));
  state.counters["MAC/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(4 * hidden * embed * B),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmKernel)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void BM_ModelBundleSaveLoad(benchmark::State& state) {
  auto& f = Fixture();
  const std::string path = "/tmp/rl4oasd_micro_model.rlmb";
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::SaveModel(f.model, path).ok());
    auto loaded = io::LoadModel(&f.city.net, path);
    benchmark::DoNotOptimize(loaded.ok());
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_ModelBundleSaveLoad);

}  // namespace

BENCHMARK_MAIN();
