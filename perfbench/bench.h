// Shared pieces of the repo benchmark: the fixed city and model, seeded
// input generation helpers, sample sets with windowed percentiles, the
// reference trip record every correctness gate compares against, and the
// report that becomes the final JSON line. See perfbench/README.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/rl4oasd.h"
#include "roadnet/road_network.h"
#include "traj/dataset.h"
#include "traj/types.h"

namespace perfbench {

namespace rl = rl4oasd;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  // span dumps land here
};

/// The final report: metrics by name and unit, the operation tally behind
/// `attempted`/`failed`, and human-readable provenance/notes lines.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// A percentile (or median-of-windows percentile) with its sample count.
  void AddPct(const std::string& name, double value, const std::string& unit,
              int64_t samples);
  void Note(const std::string& line) { notes_.push_back(line); }
  /// Counts `n` failed operations and records why.
  void Fail(const std::string& why, int64_t n = 1);
  void Attempt(int64_t n) { attempted_ += n; }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0; }
  /// Human-readable lines, then the one-line JSON result.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    int64_t samples;  // -1: not a sampled statistic
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Latency samples (ns, saturating at ~4.3 s) split into equal time windows
/// of the timed phase. A percentile is computed per window and the lower
/// quartile over windows is reported: interference from other tenants of a
/// shared host only ever slows a window, so the quieter windows estimate the
/// program's own cost, and most windows must slow before the result moves.
class Windowed {
 public:
  explicit Windowed(int windows = 0) : w_(static_cast<size_t>(windows)) {}
  void Add(int window, int64_t ns);
  /// Reserves (and touches) room for `per_window` samples per window, so
  /// that growing a sample vector never stalls a timed loop.
  void Reserve(size_t per_window);
  void Merge(const Windowed& other);
  int64_t count() const;
  /// Lower quartile over windows holding at least 10 samples beyond `q` of
  /// their q-quantile; pools all samples when no window has that many.
  /// Returns microseconds.
  double PctUs(double q) const;
  std::vector<uint32_t> Pooled() const;

 private:
  std::vector<std::vector<uint32_t>> w_;
};

/// q-quantile (nearest rank) of `v` in place; 0 when empty.
double Quantile(std::vector<uint32_t>* v, double q);
double Median(std::vector<double> v);
/// q-quantile with linear interpolation (Python's statistics.quantiles
/// "inclusive" method); the benchmark reports q = 0.25 of timings across
/// windows or passes and q = 0.75 of rates.
double Quartile(std::vector<double> v, double q);

// ---------------------------------------------------------------------------
// The fixed world: one Chengdu-like city and one model configuration for
// every workload and seed (only the inputs replayed against them vary).

struct City {
  rl::roadnet::RoadNetwork net;
  rl::traj::Dataset train;
  rl::traj::Dataset test;
};

std::unique_ptr<City> BuildCity();
rl::core::Rl4OasdConfig ModelConfig();

/// Test trips with at least two segments: the replay pool of the serving
/// workloads.
std::vector<const rl::traj::LabeledTrajectory*> ServingPool(const City& city);

/// Seeded per-fix timestamps for one trip: start_time plus 2-4 s steps.
std::vector<double> Timestamps(const rl::traj::MapMatchedTrajectory& t,
                               std::mt19937_64* rng);

// ---------------------------------------------------------------------------
// Host speed. A shared host (a 4-vCPU VM here) can run the same
// deterministic work up to twice as slow in some minutes as in others, so
// every reported timing is scaled to a reference host speed measured by a
// probe in the same thread at the same time (README.md, "Host speed").

/// Thread CPU ns of a fixed loop owned by the benchmark (a 64x64
/// matrix-vector chain and lookups in a 256 KB table), run twice and timed
/// on the second pass: its data then sit in the core's own caches, so what
/// the program left in the caches does not change the reading, and CPU
/// time leaves out any time the thread waited for a core, so the program's
/// own threads competing for cores do not change it either.
int64_t ProbeHostNs();

/// The probe time that reported timings are scaled to.
inline constexpr double kRefProbeNs = 350000.0;
inline constexpr int64_t kProbePeriodNs = 100000000;

/// Probe readings of one thread.
struct HostProbe {
  std::vector<double> ns;
  int64_t next = 0;
  void Sample() { ns.push_back(static_cast<double>(ProbeHostNs())); }
  /// Samples at most once per kProbePeriodNs.
  void MaybeSample(int64_t now) {
    if (now < next) return;
    Sample();
    next = NowNs() + kProbePeriodNs;
  }
  /// Reference over measured host speed: multiplies a time measured
  /// alongside these readings (divides a rate).
  double Scale() const { return ns.empty() ? 1.0 : kRefProbeNs / Median(ns); }
};

// ---------------------------------------------------------------------------
// Reference outputs of one pool trip, computed untimed in setup.

struct RefAlert {
  rl::traj::Subtrajectory range;
  size_t position = 0;
  /// Index (in the trip's offered point stream) of the point whose Feed
  /// emitted the alert; -1 when the trip end emitted it.
  int32_t point = -1;
};

struct RefTrip {
  std::vector<uint8_t> point_labels;  // Feed's label per accepted point
  std::vector<uint8_t> final_labels;
  std::vector<RefAlert> alerts;
  bool evicted = false;  // quarantine eviction instead of a trip end
};

/// Single-thread OnlineDetector::Session replay of one clean edge stream.
RefTrip SessionReference(const rl::core::Rl4Oasd& model,
                         rl::traj::SdPair sd, double start_time,
                         const std::vector<rl::traj::EdgeId>& edges);

/// VmHWM of this process in MB.
double PeakRssMb();

/// Held-out overall F1 of `model` on the test split.
double TestF1(const rl::core::Rl4Oasd& model, const City& city);

// Workload entry points (workloads.cc: untimed-reference + timed run;
// trace.cc: the traced layer-by-layer replay).
void RunEdgeFleet(const Args& args, Report* report);
void RunGpsFleet(const Args& args, Report* report);
void TraceEdgeFleet(const Args& args, Report* report);
void TraceGpsFleet(const Args& args, Report* report);

}  // namespace perfbench
