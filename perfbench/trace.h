// The traced run's span recorder and layer replay. Spans are recorded from
// the benchmark's own code around calls into each layer's public API; none
// are recorded inside src/.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "core/detector.h"
#include "core/rl4oasd.h"
#include "serve/ingest_guard.h"

namespace perfbench {

enum SpanName : uint8_t {
  kSpanFix,         // gps_fleet: all fleet and matcher work of one raw fix
  kSpanFeed,        // FleetMonitor::Feed
  kSpanStartTrip,   // FleetMonitor::StartTrip
  kSpanEndTrip,     // FleetMonitor::EndTrip
  kSpanMatchPoint,  // StreamingMatcher::MatchPoint
  kSpanFinish,      // StreamingMatcher::Finish
  kSpanSubmit,      // FleetMonitor::Submit
  kSpanGuard,       // replay: IngestGuard::Check
  kSpanNrf,         // replay: Preprocessor::NormalRouteFeatureAt
  kSpanStep,        // replay: RsrNet::StepForward
  kSpanRnel,        // replay: RnelDeterministicLabel
  kSpanPolicy,      // replay: AsdNet::GreedyAction
  kSpanRunTracker,  // replay: RunTracker::Push
  kNumSpanNames,
};

extern const char* const kSpanNames[kNumSpanNames];

struct Span {
  int64_t start = 0;
  int64_t end = 0;
  int64_t fix = -1;     // the fix (request) the span belongs to
  int32_t parent = -1;  // causing span, -1 for a root
  uint8_t name = 0;
  /// A layer replay span: it re-executes the parent's work through one
  /// layer's public function after the parent returned, so it does not lie
  /// inside the parent's interval and is not subtracted from its self time.
  bool replay = false;
};

/// In-memory span recorder; Dump() writes the spans out at the end.
class Tracer {
 public:
  Tracer();
  /// Begin returns -1 and nothing is recorded while disabled (warm-up).
  void set_enabled(bool on) { enabled_ = on; }
  int Begin(SpanName name);
  void End(int span);
  void Replay(SpanName name, int64_t start, int64_t end, int parent);
  void set_fix(int64_t fix) { fix_ = fix; }

  struct Totals {
    int64_t calls = 0;
    int64_t total_ns = 0;  // summed durations
    int64_t self_ns = 0;   // minus the non-replay children's durations
    std::vector<uint32_t> durations;
  };
  std::array<Totals, kNumSpanNames> Summarize() const;
  /// Tab-separated: name, parent, fix, start_ns, end_ns, replay.
  bool Dump(const std::string& path) const;
  size_t size() const { return spans_.size(); }
  /// Calibrated cost of one clock read, netted out of every span.
  int64_t clock_ns() const { return clock_ns_; }

 private:
  bool enabled_ = true;
  int64_t clock_ns_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  int64_t fix_ = -1;
};

/// Shadow per-vehicle state that re-runs each accepted fix through the
/// public functions the serving path calls inside FleetMonitor::Feed —
/// IngestGuard::Check, Preprocessor::NormalRouteFeatureAt,
/// RsrNet::StepForward, RnelDeterministicLabel, AsdNet::GreedyAction and
/// RunTracker::Push — and records one replay span per call. The label it
/// derives must equal the label Feed returned.
class LayerReplay {
 public:
  LayerReplay(const rl::core::Rl4Oasd* model,
              rl::serve::IngestGuardConfig guard, Tracer* tracer);
  void StartTrip(int64_t vid, rl::traj::SdPair sd, double start_time);
  /// Returns the label, or -1 when the guard drops the point.
  int Feed(int64_t vid, rl::traj::EdgeId edge, double ts, int parent);
  void EndTrip(int64_t vid) { shadows_.erase(vid); }

 private:
  struct Shadow {
    explicit Shadow(size_t state, int delay_d) : stream(state), tracker(delay_d) {}
    rl::core::RsrStream stream;
    rl::core::RunTracker tracker;
    rl::serve::IngestGuard::State guard;
    rl::traj::SdPair sd;
    double start_time = 0.0;
    rl::traj::EdgeId prev = 0;
    int prev_label = 0;
    bool first = true;
  };
  const rl::core::Rl4Oasd* model_;
  rl::serve::IngestGuard guard_;
  Tracer* tracer_;
  std::unordered_map<int64_t, Shadow> shadows_;
};

/// One trip's fleet calls made inside a gps_fleet fix, kept for a layer
/// replay after the fix's root span has ended, so that the replay's own
/// time stays out of that span.
struct PendingTrip {
  int64_t vid = -1;  // -1: nothing pending
  rl::traj::SdPair sd;
  double start_time = 0.0;
  std::vector<rl::traj::EdgeId> edges;
  std::vector<double> ts;
  std::vector<int> spans;   // the Feed span each fed edge belongs to
  std::vector<int> labels;  // Feed's label, -1 on an error return
};

/// What a workload loop needs to trace: the recorder, the layer replay
/// (serving workloads), and counters measured at the same boundaries.
struct TraceHooks {
  Tracer tracer;
  std::unique_ptr<LayerReplay> replay;
  PendingTrip pending;
  int64_t match_calls = 0;
  int64_t match_kept = 0;
  int64_t label_mismatches = 0;
  int64_t backlog_max = 0;
  /// Replays `pending` through the layers and clears it.
  void ReplayPending();
};

}  // namespace perfbench
