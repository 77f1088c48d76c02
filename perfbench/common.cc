#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "bench.h"
#include "eval/metrics.h"
#include "roadnet/grid_city.h"
#include "traj/generator.h"

namespace perfbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit, -1});
}

void Report::AddPct(const std::string& name, double value,
                    const std::string& unit, int64_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::Fail(const std::string& why, int64_t n) {
  failed_ += n;
  if (notes_.size() < 200) notes_.push_back("FAIL: " + why);
}

void Report::Print() const {
  for (const auto& n : notes_) std::printf("# %s\n", n.c_str());
  for (const auto& m : metrics_) {
    if (m.samples >= 0) {
      std::printf("%-36s %14.4f %-6s (n=%lld)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples));
    } else {
      std::printf("%-36s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(attempted_, 1)),
              static_cast<long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics_[i].name.c_str(), v,
                metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void Windowed::Add(int window, int64_t ns) {
  if (window < 0 || static_cast<size_t>(window) >= w_.size()) return;
  w_[static_cast<size_t>(window)].push_back(
      static_cast<uint32_t>(std::clamp<int64_t>(ns, 0, UINT32_MAX)));
}

void Windowed::Reserve(size_t per_window) {
  for (auto& w : w_) {
    w.resize(per_window);
    w.clear();
  }
}

void Windowed::Merge(const Windowed& other) {
  if (w_.size() < other.w_.size()) w_.resize(other.w_.size());
  for (size_t i = 0; i < other.w_.size(); ++i) {
    w_[i].insert(w_[i].end(), other.w_[i].begin(), other.w_[i].end());
  }
}

int64_t Windowed::count() const {
  int64_t n = 0;
  for (const auto& w : w_) n += static_cast<int64_t>(w.size());
  return n;
}

std::vector<uint32_t> Windowed::Pooled() const {
  std::vector<uint32_t> all;
  for (const auto& w : w_) all.insert(all.end(), w.begin(), w.end());
  return all;
}

double Windowed::PctUs(double q) const {
  std::vector<double> per_window;
  for (const auto& w : w_) {
    if (static_cast<double>(w.size()) * (1.0 - q) < 10.0) continue;
    std::vector<uint32_t> copy = w;
    per_window.push_back(Quantile(&copy, q));
  }
  if (per_window.empty()) {
    std::vector<uint32_t> all = Pooled();
    return Quantile(&all, q) / 1e3;
  }
  return Quartile(per_window, 0.25) / 1e3;
}

double Quantile(std::vector<uint32_t>* v, double q) {
  if (v->empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v->size()));
  const size_t k = std::min(v->size() - 1,
                            static_cast<size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(k),
                   v->end());
  return static_cast<double>((*v)[k]);
}

double Quartile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

int64_t ThreadCpuNs() {
  timespec t;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<int64_t>(t.tv_sec) * 1000000000 + t.tv_nsec;
}

}  // namespace

int64_t ProbeHostNs() {
  constexpr int kDim = 64;
  constexpr uint32_t kTable = 1u << 16;
  static thread_local std::vector<float> w(kDim * kDim, 0.5f), x(kDim), y(kDim);
  static thread_local std::vector<uint32_t> table(kTable, 1u);
  int64_t ns = 0;
  for (int pass = 0; pass < 2; ++pass) {
    std::fill(x.begin(), x.end(), 1.0f);
    uint32_t idx = 1, acc = 0;
    const int64_t t0 = ThreadCpuNs();
    for (int it = 0; it < 200; ++it) {
      for (int i = 0; i < kDim; ++i) {
        float s = 0.0f;
        for (int j = 0; j < kDim; ++j) s += w[i * kDim + j] * x[j];
        y[i] = s * (1.0f / 32.0f);  // keeps x at 1: no denormals
      }
      x.swap(y);
      for (int k = 0; k < 64; ++k) {
        idx = idx * 1103515245u + 12345u;
        acc += table[idx & (kTable - 1)];
      }
    }
    ns = ThreadCpuNs() - t0;
    table[0] = acc;  // keeps the loop live
  }
  return ns;
}

// The Chengdu-like city of the repo's reproduction benches (40 SD pairs,
// 4% anomalies, 70/30 split), pinned here so that the benchmark's world
// does not move when those benches change.
std::unique_ptr<City> BuildCity() {
  auto city = std::make_unique<City>();
  rl::roadnet::GridCityConfig g;
  g.origin_lat = 30.60;
  g.origin_lon = 104.00;
  g.seed = 7;
  city->net = rl::roadnet::BuildGridCity(g);
  rl::traj::GeneratorConfig t;
  t.num_sd_pairs = 40;
  t.min_trajs_per_pair = 40;
  t.max_trajs_per_pair = 150;
  t.anomaly_ratio = 0.04;
  t.seed = 12;
  rl::traj::TrajectoryGenerator gen(&city->net, t);
  auto full = gen.Generate();
  rl::Rng rng(33);
  auto [train, test] = full.Split(full.size() * 7 / 10, &rng);
  city->train = std::move(train);
  city->test = std::move(test);
  return city;
}

// The tuned configuration of the reproduction benches, pinned likewise.
// trainer_threads stays 1, so Fit is bit-identical run to run.
rl::core::Rl4OasdConfig ModelConfig() {
  rl::core::Rl4OasdConfig cfg;
  cfg.preprocess.alpha = 0.1;
  cfg.preprocess.delta = 0.12;
  cfg.detector.delay_d = 2;
  cfg.rsr.embed_dim = 32;
  cfg.rsr.nrf_dim = 32;
  cfg.rsr.hidden_dim = 32;
  cfg.asd.label_dim = 32;
  cfg.embedding.dim = 32;
  cfg.embedding.epochs = 1;
  cfg.embedding.random_walks_per_edge = 1;
  cfg.pretrain_samples = 200;
  cfg.pretrain_epochs = 4;
  cfg.joint_samples = 400;
  cfg.epochs_per_traj = 1;
  cfg.trainer_threads = 1;
  return cfg;
}

std::vector<const rl::traj::LabeledTrajectory*> ServingPool(const City& city) {
  std::vector<const rl::traj::LabeledTrajectory*> pool;
  for (const auto& lt : city.test.trajs()) {
    if (lt.traj.edges.size() >= 2) pool.push_back(&lt);
  }
  return pool;
}

std::vector<double> Timestamps(const rl::traj::MapMatchedTrajectory& t,
                               std::mt19937_64* rng) {
  std::uniform_real_distribution<double> step(2.0, 4.0);
  std::vector<double> ts(t.edges.size());
  double now = t.start_time;
  for (double& x : ts) {
    now += step(*rng);
    x = now;
  }
  return ts;
}

RefTrip SessionReference(const rl::core::Rl4Oasd& model, rl::traj::SdPair sd,
                         double start_time,
                         const std::vector<rl::traj::EdgeId>& edges) {
  RefTrip ref;
  auto session = model.StartSession(sd, start_time);
  for (size_t i = 0; i < edges.size(); ++i) {
    ref.point_labels.push_back(static_cast<uint8_t>(session.Feed(edges[i])));
    for (const auto& run : session.TakeNewlyClosedRuns()) {
      ref.alerts.push_back({run, session.labels().size(),
                            static_cast<int32_t>(i)});
    }
  }
  ref.final_labels = session.Finish();
  for (const auto& run : session.TakeNewlyClosedRuns()) {
    ref.alerts.push_back({run, session.labels().size(), -1});
  }
  return ref;
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
    }
  }
  std::fclose(f);
  return mb;
}

double TestF1(const rl::core::Rl4Oasd& model, const City& city) {
  return rl::eval::EvaluateGrouped(
             city.test,
             [&](const rl::traj::MapMatchedTrajectory& t) {
               return model.Detect(t);
             })
      .overall.f1;
}

}  // namespace perfbench
