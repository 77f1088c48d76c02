#include "common/rng.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/logging.h"

namespace rl4oasd {

namespace {

inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
  has_spare_gaussian_ = false;
}

Rng::State Rng::ExportState() const {
  State state;
  for (int i = 0; i < 4; ++i) state.s[i] = s_[i];
  state.has_spare_gaussian = has_spare_gaussian_;
  state.spare_gaussian = spare_gaussian_;
  return state;
}

void Rng::ImportState(const State& state) {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  has_spare_gaussian_ = state.has_spare_gaussian;
  spare_gaussian_ = state.spare_gaussian;
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53-bit mantissa -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::Gaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u, v, s;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double mul = std::sqrt(-2.0 * std::log(s) / s);
  spare_gaussian_ = v * mul;
  has_spare_gaussian_ = true;
  return u * mul;
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return UniformInt(weights.size());
  double r = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (r < w) return i;
    r -= w;
  }
  return weights.size() - 1;
}

CategoricalSampler::CategoricalSampler(const std::vector<double>& weights) {
  const size_t n = weights.size();
  weights_.resize(n);
  prefix_.resize(n + 1);
  prefix_[0] = 0.0;
  // The clamped ascending sum is the same chain Categorical computes for
  // `total`, so total_ matches it bit-for-bit.
  for (size_t i = 0; i < n; ++i) {
    weights_[i] = weights[i] > 0.0 ? weights[i] : 0.0;
    prefix_[i + 1] = prefix_[i] + weights_[i];
  }
  total_ = n == 0 ? 0.0 : prefix_[n];
  // Both the subtractive scan and the prefix chain stay within
  // n * ulp(total) / 2 of the real prefix sums; 4x that covers both sides
  // with margin. Draws inside the band replay the exact scan.
  guard_ = 4.0 * static_cast<double>(n) * (total_ * 0x1.0p-52);
  if (total_ <= 0.0) return;
  RL4_CHECK(n <= UINT32_MAX) << "CategoricalSampler: " << n << " weights";
  // One ascending pass: bucket edges and prefix sums both increase, so each
  // bucket's start resumes where the previous one stopped. Where an edge
  // computed here and a bucket computed in Locate round apart, Locate's
  // two-way walk absorbs it; the guide only has to be close.
  buckets_per_unit_ = static_cast<double>(n) / total_;
  guide_.resize(n);
  size_t idx = 0;
  for (size_t j = 0; j < n; ++j) {
    const double edge =
        static_cast<double>(j) * total_ / static_cast<double>(n);
    while (idx + 1 < n && prefix_[idx + 1] <= edge) ++idx;
    guide_[j] = static_cast<uint32_t>(idx);
  }
}

size_t CategoricalSampler::Locate(double r) const {
  const size_t n = weights_.size();
  // A NaN position (non-finite total) fails the compare and starts from the
  // last bucket; the walk then stays put and Sample's guard test rejects it.
  const double pos = r * buckets_per_unit_;
  size_t idx = guide_[pos < static_cast<double>(n) ? static_cast<size_t>(pos)
                                                   : n - 1];
  while (idx < n && prefix_[idx + 1] <= r) ++idx;
  while (prefix_[idx] > r) --idx;  // prefix_[0] = 0 <= r stops the walk
  return idx;
}

size_t CategoricalSampler::Sample(Rng* rng) const {
  assert(!weights_.empty());
  const size_t n = weights_.size();
  if (total_ <= 0.0) return rng->UniformInt(n);
  const double r = rng->Uniform() * total_;
  const size_t idx = Locate(r);
  // The guard test also certifies the bracket: an idx with r outside
  // [prefix_[idx], prefix_[idx + 1]) always fails it.
  if (idx < n && r - prefix_[idx] > guard_ && prefix_[idx + 1] - r > guard_) {
    return idx;
  }
  // Near a prefix boundary (or rounded past the last one): the bracket is
  // not certifiably equal to the scan, so run the scan itself.
  double rem = r;
  for (size_t i = 0; i < n; ++i) {
    if (rem < weights_[i]) return i;
    rem -= weights_[i];
  }
  return n - 1;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  if (k >= n) {
    std::vector<size_t> all(n);
    std::iota(all.begin(), all.end(), size_t{0});
    Shuffle(&all);
    return all;
  }
  // Reservoir sampling keeps memory at O(k).
  std::vector<size_t> reservoir(k);
  std::iota(reservoir.begin(), reservoir.end(), size_t{0});
  for (size_t i = k; i < n; ++i) {
    size_t j = UniformInt(i + 1);
    if (j < k) reservoir[j] = i;
  }
  return reservoir;
}

}  // namespace rl4oasd
