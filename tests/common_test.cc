// Tests for Status/Result, Rng, string utilities, and CSV I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/csv.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace rl4oasd {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad alpha");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad alpha");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad alpha");
}

TEST(StatusTest, CopyAndMove) {
  Status s = Status::IOError("disk");
  Status copy = s;
  EXPECT_EQ(copy.message(), "disk");
  Status moved = std::move(s);
  EXPECT_EQ(moved.message(), "disk");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Status FailingFn() { return Status::Internal("boom"); }
Status PropagatingFn() {
  RL4_RETURN_NOT_OK(FailingFn());
  return Status::OK();
}
Result<int> ValueFn() { return 7; }
Status AssignFn(int* out) {
  RL4_ASSIGN_OR_RETURN(*out, ValueFn());
  return Status::OK();
}

TEST(ResultTest, Macros) {
  EXPECT_EQ(PropagatingFn().code(), StatusCode::kInternal);
  int v = 0;
  EXPECT_TRUE(AssignFn(&v).ok());
  EXPECT_EQ(v, 7);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{2}, int64_t{5});
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sq / kN, 1.0, 0.05);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(13);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) counts[rng.Categorical(w)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / kN, 0.75, 0.03);
}

TEST(RngTest, CategoricalAllZeroFallsBackToUniform) {
  Rng rng(13);
  std::vector<double> w = {0.0, 0.0};
  int c0 = 0;
  for (int i = 0; i < 1000; ++i) c0 += rng.Categorical(w) == 0;
  EXPECT_GT(c0, 300);
  EXPECT_LT(c0, 700);
}

// A skip-gram-shaped negative-sampling distribution: word2vec's smoothed
// unigram pow(count + 1, 0.75) over n edges with heavy-tailed counts.
std::vector<double> SkipGramUnigram(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(n);
  for (double& x : w) {
    const double count = std::floor(std::exp(rng.Uniform(0.0, 8.0)));
    x = std::pow(count + 1.0, 0.75);
  }
  return w;
}

// Weight vectors that stress CategoricalSampler's guide table: the random
// shapes (n = 1, skewed, uniform, zero-padded, tiny/huge, negative) plus
// bucket-edge and run-length extremes.
std::vector<std::vector<double>> SamplerShapes() {
  std::vector<std::vector<double>> shapes;
  Rng shape_rng(99);
  for (int shape = 0; shape < 6; ++shape) {
    std::vector<double> w;
    const size_t n = shape == 0 ? 1 : 7 * (shape + 1) * (shape + 1);
    for (size_t i = 0; i < n; ++i) {
      double v = shape_rng.Uniform();
      if (shape == 1 && i % 3 == 0) v = 0.0;      // interleaved zeros
      if (shape == 2) v = std::pow(v, 8.0);       // heavily skewed
      if (shape == 3) v *= 1e12;                  // large magnitudes
      if (shape == 4) v *= 1e-12;                 // tiny magnitudes
      if (shape == 5 && i % 2 == 0) v = -v;       // negatives clamp to zero
      w.push_back(v);
    }
    shapes.push_back(w);
  }
  // All-equal weights: every prefix sum falls exactly on a bucket edge
  // (exact sums for 1.0; rounded ones for 0.1).
  shapes.push_back(std::vector<double>(1000, 1.0));
  shapes.push_back(std::vector<double>(999, 0.1));
  shapes.push_back(std::vector<double>(3, 1.0 / 3.0));
  // Long leading and trailing zero runs around a short positive middle.
  std::vector<double> runs(3000, 0.0);
  for (size_t i = 1000; i < 1010; ++i) {
    runs[i] = 1.0 + static_cast<double>(i % 3);
  }
  shapes.push_back(runs);
  // One dominant weight among 10^4 tiny ones.
  std::vector<double> dominant(10001, 1e-6);
  dominant[5000] = 1e3;
  shapes.push_back(dominant);
  shapes.push_back({0.3, 0.7});  // n = 2
  shapes.push_back({0.0, 2.5});
  shapes.push_back(SkipGramUnigram(4984, 7));
  return shapes;
}

TEST(RngTest, CategoricalSamplerReplaysCategoricalExactly) {
  // The sampler's contract is draw-for-draw bit-identity with
  // Rng::Categorical on a fixed weight vector: same indices AND same RNG
  // consumption (the skip-gram unigram distribution is the production user).
  const auto shapes = SamplerShapes();
  for (size_t shape = 0; shape < shapes.size(); ++shape) {
    const auto& w = shapes[shape];
    CategoricalSampler sampler(w);
    Rng a(1234 + shape);
    Rng b(1234 + shape);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(sampler.Sample(&a), b.Categorical(w))
          << "shape " << shape << " draw " << i;
    }
    // Identical RNG consumption: the streams must still be in lockstep.
    EXPECT_EQ(a.NextU64(), b.NextU64()) << "shape " << shape;
  }
}

// Rng::Categorical's draw for each uniform u[k] over w, given the clamped
// total Categorical computes first: its subtractive scan, per draw
// unchanged, with the independent draws interleaved so that a million
// draws over ~5k weights stay cheap.
template <size_t B>
void CategoricalScan(const std::vector<double>& w, double total,
                     const double (&u)[B], size_t (&out)[B]) {
  double rem[B];
  bool done[B];
  for (size_t k = 0; k < B; ++k) {
    rem[k] = u[k] * total;
    out[k] = w.size() - 1;
    done[k] = false;
  }
  size_t left = B;
  for (size_t i = 0; i < w.size() && left > 0; ++i) {
    const double wi = w[i] > 0.0 ? w[i] : 0.0;
    for (size_t k = 0; k < B; ++k) {
      if (done[k]) continue;
      if (rem[k] < wi) {
        out[k] = i;
        done[k] = true;
        --left;
      } else {
        rem[k] -= wi;
      }
    }
  }
}

TEST(RngTest, CategoricalSamplerReplaysAMillionSkipGramDraws) {
  const auto w = SkipGramUnigram(4984, 11);
  double total = 0.0;
  for (double x : w) total += (x > 0.0 ? x : 0.0);
  CategoricalSampler sampler(w);
  ASSERT_EQ(sampler.total(), total);
  Rng a(2024);
  Rng b(2024);
  // The scan reference is Categorical itself, checked on a prefix.
  for (int i = 0; i < 2000; ++i) {
    Rng c = b;
    const size_t want = c.Categorical(w);
    double u[1] = {b.Uniform()};
    size_t out[1];
    CategoricalScan(w, total, u, out);
    ASSERT_EQ(out[0], want) << "draw " << i;
    ASSERT_EQ(sampler.Sample(&a), want) << "draw " << i;
  }
  constexpr size_t kBlock = 16;
  for (int block = 0; block < 1000000 / static_cast<int>(kBlock); ++block) {
    double u[kBlock];
    size_t want[kBlock];
    size_t got[kBlock];
    for (size_t k = 0; k < kBlock; ++k) {
      got[k] = sampler.Sample(&a);
      u[k] = b.Uniform();  // Categorical's one uniform per draw
    }
    CategoricalScan(w, total, u, want);
    for (size_t k = 0; k < kBlock; ++k) {
      ASSERT_EQ(got[k], want[k]) << "block " << block << " draw " << k;
    }
  }
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, CategoricalSamplerLocateMatchesBinarySearch) {
  // Locate is the guide-table bracket search Sample certifies with its
  // guard test. Pin it directly at every prefix sum and bucket edge and a
  // few ulps either side, where rounding of the bucket index or of the
  // edges would send a one-way or mis-started walk to the wrong interval
  // (Sample's guard test would then hide it behind the O(n) scan).
  for (const auto& w : SamplerShapes()) {
    CategoricalSampler sampler(w);
    const size_t n = w.size();
    std::vector<double> prefix(n + 1, 0.0);
    for (size_t i = 0; i < n; ++i) {
      prefix[i + 1] = prefix[i] + (w[i] > 0.0 ? w[i] : 0.0);
    }
    const double total = prefix[n];
    ASSERT_EQ(sampler.total(), total);
    std::vector<double> points(prefix);
    for (size_t j = 0; j < n; ++j) {
      points.push_back(static_cast<double>(j) * total /
                       static_cast<double>(n));
      points.push_back(static_cast<double>(j) / (static_cast<double>(n) /
                                                 total));
    }
    for (double p : points) {
      double lo = p;
      double hi = p;
      for (int ulps = 0; ulps <= 3; ++ulps) {
        for (double r : {lo, hi}) {
          if (r < 0.0 || r > total) continue;
          const size_t want = static_cast<size_t>(
              std::upper_bound(prefix.begin() + 1, prefix.end(), r) -
              prefix.begin() - 1);
          ASSERT_EQ(sampler.Locate(r), want)
              << "n " << n << " r " << r << " total " << total;
        }
        lo = std::nextafter(lo, 0.0);
        hi = std::nextafter(hi, total);
      }
    }
  }
}

TEST(RngTest, CategoricalSamplerAllZeroFallsBackToUniform) {
  std::vector<double> w = {0.0, -1.0, 0.0};
  CategoricalSampler sampler(w);
  Rng a(13);
  Rng b(13);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(sampler.Sample(&a), b.Categorical(w));
  }
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(17);
  auto s = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::sort(s.begin(), s.end());
  EXPECT_EQ(std::unique(s.begin(), s.end()), s.end());
  for (size_t v : s) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleAllWhenKExceedsN) {
  Rng rng(17);
  auto s = rng.SampleWithoutReplacement(5, 10);
  EXPECT_EQ(s.size(), 5u);
  std::sort(s.begin(), s.end());
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(s[i], i);
}

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  abc \t\n"), "abc");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a"), "a");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b"}, ","), "a,b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ", "), "x");
}

TEST(StringsTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64(" -7 ", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("4x", &v));
  EXPECT_FALSE(ParseInt64("x4", &v));
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5z", &v));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(CsvTest, RoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rl4oasd_csv_test.csv")
          .string();
  CsvTable t;
  t.header = {"id", "value"};
  t.rows = {{"1", "a"}, {"2", "b"}};
  ASSERT_TRUE(WriteCsv(path, t).ok());
  auto r = ReadCsv(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->header, t.header);
  EXPECT_EQ(r->rows, t.rows);
  EXPECT_EQ(r->ColumnIndex("value"), 1);
  EXPECT_EQ(r->ColumnIndex("missing"), -1);
  std::remove(path.c_str());
}

TEST(CsvTest, SkipsCommentsAndBlankLines) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rl4oasd_csv_test2.csv")
          .string();
  {
    std::ofstream out(path);
    out << "# comment\nid,v\n\n1,2\n# another\n3,4\n";
  }
  auto r = ReadCsv(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIOError) {
  auto r = ReadCsv("/nonexistent/path/file.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1;
  EXPECT_GT(sw.ElapsedNanos(), 0);
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
}

TEST(TimingAccumulatorTest, MeanAndReset) {
  TimingAccumulator acc;
  acc.Add(1.0);
  acc.Add(3.0);
  EXPECT_DOUBLE_EQ(acc.MeanSeconds(), 2.0);
  EXPECT_EQ(acc.count(), 2);
  acc.Reset();
  EXPECT_EQ(acc.count(), 0);
  EXPECT_DOUBLE_EQ(acc.MeanSeconds(), 0.0);
}

}  // namespace
}  // namespace rl4oasd
