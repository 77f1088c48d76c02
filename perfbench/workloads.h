// Workload internals shared by the timed runs (workloads.cc) and the traced
// replays (trace.cc).
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "bench.h"
#include "common/mutex.h"
#include "core/rl4oasd.h"
#include "mapmatch/hmm_matcher.h"
#include "mapmatch/streaming_matcher.h"
#include "serve/chaos.h"
#include "serve/fleet.h"
#include "trace.h"

namespace perfbench {

// Sizes and rates are pinned: a faster program sees the same offered work.
inline constexpr int kSetupRepeats = 3;
inline constexpr int kClients = 2;          // closed-loop client threads
inline constexpr int kWindows = 10;         // percentile windows per run
inline constexpr double kWarmupS = 2.0;     // closed loops, untimed
inline constexpr size_t kEdgeFleetLive = 20000;
inline constexpr size_t kGpsLive = 2000;
inline constexpr size_t kOpenLive = 2000;
inline constexpr double kOpenRate = 100000.0;  // offered fixes per second
inline constexpr double kOpenSeconds = 4.0;    // offered stream length
inline constexpr size_t kOpenPoolCycles = 2;   // perturbed instances / trip
inline constexpr int kMatchWorkers = 2;        // MatchBatch worker threads
// Closed-loop latency samples reserved per client-second up front.
inline constexpr size_t kReservePerClientS = 400000;

struct LoopClock {
  int windows = 1;
  int64_t measure_start = 0;
  int64_t measure_ns = 1;
  int64_t end = 0;
  int64_t max_fixes = 0;   // traced replays: fix budget (0 = time only)
  int64_t warm_fixes = 0;  // traced replays: untraced, unrecorded prefix
};

LoopClock MakeClock(int seconds, double warmup_s, int windows);

/// Window of time `t` in the measured phase, or -1 outside it.
int Window(int64_t t, int64_t measure_start, int64_t measure_ns, int windows);

/// Per-client state of a synchronous closed loop. Sink callbacks run on the
/// client's thread inside Feed/EndTrip, so they find it thread-locally.
struct ClientCtx {
  explicit ClientCtx(int windows)
      : fix(windows), alert_lag(windows), trip_close(windows),
        fixes_per_window(static_cast<size_t>(windows), 0) {}
  int64_t due_ns = 0;
  int64_t vid = -1;
  const RefTrip* ref = nullptr;
  size_t next_alert = 0;
  int32_t point = -1;  // fix being fed; -1 while ending the trip
  int window = -1;
  bool closed = false;
  std::vector<uint8_t>* labels_out = nullptr;
  Windowed fix, alert_lag, trip_close;
  std::vector<int64_t> fixes_per_window;
  int64_t attempted = 0, failed = 0, mismatches = 0, unmatched = 0;
  int64_t fixes = 0;
  HostProbe probe;  // sampled between fixes of the timed loops
};

extern thread_local ClientCtx* tl_ctx;

/// Synchronous-delivery sink: checks every alert and trip end against the
/// current trip's reference and times it from the fix (or trip end) that
/// was due when the client called in.
class SyncSink : public rl::serve::AlertSink {
 public:
  void OnAlert(const rl::serve::Alert& alert) override;
  void OnTripEnd(int64_t vehicle_id,
                 const std::vector<uint8_t>& final_labels) override;
  std::atomic<int64_t> stray{0};
};

struct ClosedLoopResult {
  explicit ClosedLoopResult(int windows)
      : fix(windows), alert_lag(windows), trip_close(windows),
        fixes_per_window(static_cast<size_t>(windows), 0) {}
  Windowed fix, alert_lag, trip_close;
  std::vector<int64_t> fixes_per_window;
  HostProbe probe;  // every client's readings
};

void MergeCtx(const ClientCtx& c, ClosedLoopResult* r, Report* report);

/// Wall times of the Table V pipeline a serving world's set-up runs.
struct TrainTimes {
  double match_batch_s = 0.0;
  double noisy_label_s = 0.0;
  double fit_s = 0.0;
  double total_s() const { return match_batch_s + noisy_label_s + fit_s; }
};

struct ServingWorld {
  std::unique_ptr<City> city;
  std::unique_ptr<rl::mapmatch::HmmMapMatcher> matcher;
  std::unique_ptr<rl::core::Rl4Oasd> model;
  std::vector<const rl::traj::LabeledTrajectory*> pool;
  TrainTimes times;
  /// Seeded raw traces of the training split and their MatchBatch output.
  std::vector<rl::traj::RawTrajectory> train_raws;
  std::vector<rl::Result<rl::traj::MapMatchedTrajectory>> train_matched;
};

/// The city, its matcher and the Table V pipeline over the training split:
/// MatchBatch of seeded raw traces -> noisy labels -> Fit. Fit trains on
/// the split's own segment sequences, so the model is the same for every
/// seed; the matched output is checked (CheckTrainMatch), not trained on.
ServingWorld MakeServingWorld(uint64_t seed);
/// Gate: the set-up's MatchBatch output equals sequential Match.
void CheckTrainMatch(const ServingWorld& w, Report* report);

// --- edge_fleet -------------------------------------------------------------

struct EdgeFleetInputs {
  std::vector<uint32_t> order;           // pool trip of instance k % pool
  std::vector<std::vector<double>> ts;   // per pool trip, per fix
  std::vector<uint32_t> slot_order;      // round-robin order of live slots
};

EdgeFleetInputs MakeEdgeFleetInputs(const ServingWorld& w, uint64_t seed);
std::vector<RefTrip> EdgeReferences(const ServingWorld& w);
void EdgeFleetClient(const ServingWorld& w, const EdgeFleetInputs& in,
                     const std::vector<RefTrip>& refs,
                     rl::serve::FleetMonitor* monitor, int client, int clients,
                     const LoopClock& clock, ClientCtx* ctx,
                     TraceHooks* hooks = nullptr);

// --- gps_fleet --------------------------------------------------------------

struct GpsInputs {
  std::vector<uint32_t> order;
  std::vector<rl::traj::RawTrajectory> raws;  // per pool trip
};

struct GpsRefs {
  std::vector<rl::Result<rl::traj::MapMatchedTrajectory>> match;
  std::vector<RefTrip> trips;
};

struct GpsSlot {
  std::unique_ptr<rl::mapmatch::StreamingMatcher> matcher;
  int64_t vid = 0;
  uint32_t pool = 0;
  size_t pos = 0;
  void Next(int64_t* next_k, int clients, const std::vector<uint32_t>& order);
};

GpsInputs MakeGpsInputs(const ServingWorld& w, uint64_t seed);
GpsRefs GpsReferences(const ServingWorld& w, const GpsInputs& in);
bool GpsFixStep(const ServingWorld& w, const GpsInputs& in,
                const GpsRefs& refs, rl::serve::FleetMonitor* monitor,
                GpsSlot* s, ClientCtx* ctx, TraceHooks* hooks);

// --- open-loop ingest (part of edge_fleet's traced run) -------------------

struct OpenInstance {
  uint32_t trip = 0;  // pool trip
  std::vector<rl::serve::FleetPoint> points;  // perturbed stream
  rl::serve::ChaosCounts chaos;
  RefTrip ref;
  rl::serve::FleetStats stats;  // the sync reference's counter deltas
};

struct OpenInputs {
  struct Slot {
    int32_t inst;
    int32_t point;
  };
  std::vector<OpenInstance> pool;
  std::vector<Slot> sched;  // offered order; instance k is vehicle k
  int32_t instances = 0;

  const OpenInstance& Instance(int32_t k) const {
    return pool[static_cast<size_t>(k) % pool.size()];
  }
};

rl::serve::FleetConfig OpenConfig();
OpenInputs MakeOpenInputs(const ServingWorld& w, uint64_t seed);
void OpenReferences(const ServingWorld& w, OpenInputs* in, Report* report);

/// Async-delivery sink of the open loop: matches each event to the sync
/// reference of its instance.
class OpenSink : public rl::serve::AlertSink {
 public:
  explicit OpenSink(const OpenInputs* in)
      : in_(in), seen_(static_cast<size_t>(in->instances), 0) {}
  void OnAlert(const rl::serve::Alert& alert) override;
  void OnTripEnd(int64_t vehicle_id,
                 const std::vector<uint8_t>& final_labels) override;
  void OnTripEvicted(int64_t vehicle_id, double trip_start_time,
                     const std::vector<uint8_t>& labels) override;
  int64_t mismatches = 0;
  int64_t ended = 0;

 private:
  const OpenInputs* in_;
  rl::common::Mutex mu_;
  std::vector<uint32_t> seen_;
};

struct OpenResult {
  std::vector<uint32_t> gen_late_ns;  // generator lateness per offered fix
  double drain_ms = 0.0;
  rl::serve::FleetStats stats;
  std::vector<int64_t> queue_wait_ns;
};

/// Offers the schedule at kOpenRate through Submit/SubmitEndTrip, a span
/// per Submit, then drains and gates the output against the references.
OpenResult RunOpenLoop(const ServingWorld& w, const OpenInputs& in,
                       TraceHooks* hooks, Report* report);

}  // namespace perfbench
