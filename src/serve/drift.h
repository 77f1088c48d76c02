// The drift-adaptation loop: turns a FleetMonitor into a self-updating
// service (paper Section V-G, Figures 6/7 — "RL4OASD-FT" run online).
//
//   detector  ──fires──▶  harvester buffer  ──warm──▶  background fine-tune
//        ▲                                                     │
//        │                                             shadow evaluation
//   re-arm on swap  ◀──── SwapModel (promote) ◀──gate passes───┘
//
// Four pieces, each independently testable:
//   * DriftDetector — windowed alert-rate and NRF-distribution shift
//     statistics (one-sided CUSUM plus a two-window ratio test) over the
//     live service's finalized-label stream;
//   * the label harvester — AlertSink::OnTripFinalized drains each finished
//     trip's post-Delayed-Labeling (edges, labels) pair exactly once into a
//     bounded training buffer;
//   * the fine-tune worker — clones the serving model (io::CloneModel),
//     runs Rl4Oasd::FineTune on the harvest buffer off the hot path, and
//   * the shadow gate — forks the live fleet state with the snapshot
//     machinery, replays the most recent harvested trips through the old
//     and candidate models, and promotes via FleetMonitor::SwapModel only
//     when the candidate's score is at least the live model's.
//
// Everything is driven by observed points, never wall-clock: detection
// windows, backoff, and cooldown all count road segments, and the loop is
// stepped either synchronously by the ingest driver (Poll) or by a
// condition-variable worker thread (DriftConfig::background) — so tests
// replay the whole detect → retrain → gate → swap cycle deterministically,
// with no sleeps.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/rl4oasd.h"
#include "roadnet/road_network.h"
#include "serve/fleet.h"
#include "traj/dataset.h"
#include "traj/types.h"

namespace rl4oasd::serve {

struct DriftConfig {
  // --- detector -----------------------------------------------------------
  /// Tumbling statistics-window size, in road segments of finalized trips.
  size_t window_points = 512;
  /// Completed windows whose mean freezes the stationary reference rates.
  size_t reference_windows = 2;
  /// CUSUM allowance: per-window rate excess over the reference that is
  /// considered noise (in rate units, i.e. fraction of segments).
  double cusum_k = 0.02;
  /// CUSUM decision threshold on the accumulated excess. With k = 0.02 and
  /// h = 0.10, a sustained +7pp rate shift fires after two windows.
  double cusum_h = 0.10;
  /// Two-window ratio test: fire immediately when a window's rate exceeds
  /// ratio_threshold * reference AND reference + min_abs_shift (the floor
  /// guards near-zero references against tiny absolute flutters).
  double ratio_threshold = 2.0;
  double min_abs_shift = 0.05;

  // --- label harvester ----------------------------------------------------
  /// Bounded training buffer: beyond this many finished trips the oldest is
  /// evicted (the buffer always holds the most recent traffic).
  size_t max_buffer_trips = 512;
  /// Trips the buffer must hold before a triggered fine-tune actually runs.
  /// The buffer is cleared when the detector fires, so these are all
  /// post-change-point samples.
  size_t min_buffer_trips = 64;

  // --- fine-tune + shadow gate -------------------------------------------
  /// Passed through to Rl4Oasd::FineTune on the candidate.
  int fine_tune_max_samples = 200;
  /// Most recent harvested trips replayed through both models by the gate.
  size_t shadow_trips = 48;
  /// The candidate is promoted when its shadow F1 is at least the live
  /// model's plus this margin (0 promotes ties; negative tolerates a small
  /// regression in exchange for fresher statistics).
  double promote_min_gain = 0.0;
  /// After a rejected candidate, ignore further triggers until this many
  /// more segments have been observed (the CUSUM stays saturated, so a real
  /// drift re-fires on the first window after the backoff drains).
  size_t reject_backoff_points = 2048;
  /// After a promotion, discard this many segments before the detector
  /// starts collecting its new reference (mid-transition traffic would
  /// otherwise contaminate the post-swap baseline).
  size_t post_swap_cooldown_points = 0;

  // --- execution ----------------------------------------------------------
  /// false: the owner drives the loop by calling Poll() between ingest
  /// waves (deterministic; what tests and single-threaded replays use).
  /// true: a background worker thread waits on a condition variable and
  /// runs the loop as trips finalize, off the ingest hot path.
  bool background = false;

  /// Builds the candidate model for one adaptation cycle from the live
  /// model and the harvested buffer. Defaults (when null) to
  /// io::CloneModel + FineTune(buffer, fine_tune_max_samples). Exposed so
  /// deployments can substitute a full retrain — and so tests can inject a
  /// deliberately degraded candidate to pin the gate's reject path. A null
  /// return aborts the cycle (counted as a rejection).
  std::function<std::shared_ptr<core::Rl4Oasd>(const core::Rl4Oasd& live,
                                               const traj::Dataset& buffer)>
      candidate_factory;
};

/// Windowed drift statistics over the finalized-label stream. Consumes one
/// record per finished trip — segment count, post-DL anomalous segments,
/// and segments whose Normal Route Feature says "off every normal route" —
/// and maintains two tumbling-window rates: the alert-label rate (how much
/// of the traffic the detector flags) and the NRF rate (how much of the
/// traffic the *historical statistics* have never seen as normal; this is
/// the label-free statistic that moves first under a route-popularity
/// shift, because the newly popular route is absent from the stats). The
/// first `reference_windows` completed windows freeze the stationary
/// reference; each later window feeds a one-sided CUSUM and a two-window
/// ratio test per channel, and either crossing latches fired().
class DriftDetector {
 public:
  explicit DriftDetector(const DriftConfig& config) : config_(config) {}

  /// Observes one finished trip. Returns true when this observation latched
  /// the fired state (the rising edge).
  bool ObserveTrip(size_t segments, size_t anomalous_segments,
                   size_t nrf_anomalous_segments);

  /// Reference rates are frozen and windows are being tested.
  bool armed() const { return armed_; }
  /// A shift statistic crossed its threshold; latched until ClearFire or
  /// Reset.
  bool fired() const { return fired_; }

  /// Un-latches fired() but keeps the reference and CUSUM state: a real,
  /// persisting drift re-fires on the next completed window. Used after a
  /// rejected candidate.
  void ClearFire() { fired_ = false; }

  /// Full re-arm after a model swap: drops windows, reference, and CUSUM
  /// state, and discards the next `cooldown_points` segments before the new
  /// reference starts collecting.
  void Reset(size_t cooldown_points);

  struct Stats {
    uint64_t windows_completed = 0;
    double ref_alert_rate = 0.0;
    double ref_nrf_rate = 0.0;
    double last_alert_rate = 0.0;
    double last_nrf_rate = 0.0;
    double cusum_alert = 0.0;
    double cusum_nrf = 0.0;
    size_t cooldown_points_remaining = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Closes the accumulated window and runs the shift tests.
  void CloseWindow();

  DriftConfig config_;
  Stats stats_;
  bool armed_ = false;
  bool fired_ = false;
  // Current (accumulating) window.
  size_t win_segments_ = 0;
  size_t win_anomalous_ = 0;
  size_t win_nrf_ = 0;
  // Reference accumulation (first `reference_windows` windows).
  size_t ref_windows_seen_ = 0;
  double ref_alert_sum_ = 0.0;
  double ref_nrf_sum_ = 0.0;
};

/// Counters and gauges of the adaptation loop (Status()).
struct DriftStatus {
  uint64_t trips_harvested = 0;       // finished trips drained so far
  uint64_t buffer_evictions = 0;      // oldest-trip drops at capacity
  size_t buffer_trips = 0;            // current training-buffer size
  size_t pending_trips = 0;           // harvested, not yet drained
  bool detector_armed = false;
  bool drift_pending = false;         // fired, adaptation not yet run
  uint64_t drift_events = 0;          // detector rising edges
  uint64_t cycles_started = 0;        // fine-tune cycles begun
  uint64_t promotions = 0;            // candidates swapped in
  uint64_t rejections = 0;            // candidates discarded by the gate
  uint64_t cycle_errors = 0;          // cycles aborted (snapshot/clone fail)
  double last_live_score = 0.0;       // shadow F1 of the incumbent
  double last_candidate_score = 0.0;  // shadow F1 of the candidate
  uint64_t last_shadow_divergent_trips = 0;  // trips whose labels differed
  size_t backoff_points_remaining = 0;
  uint64_t model_generation = 0;      // mirrors FleetMonitor::ModelGeneration
  DriftDetector::Stats detector;
};

/// Owns a FleetMonitor and closes the concept-drift loop around it. The
/// adapter installs itself as the monitor's sink (forwarding every callback
/// to the downstream sink unchanged, so alert delivery semantics — order,
/// exactly-once, conservation — are exactly the monitor's), harvests
/// finalized trips, and when drift is detected fine-tunes a clone of the
/// serving model in the background, gates it in shadow, and hot-swaps it in
/// with zero downtime. Ingest goes straight to monitor(); the adapter never
/// sits on the per-point path.
class DriftAdapter final : public AlertSink {
 public:
  /// `downstream` may be null (alerts are then only counted by the
  /// monitor). The road network must outlive the adapter; it is what
  /// candidate models are rebuilt against.
  DriftAdapter(const roadnet::RoadNetwork* net,
               std::shared_ptr<const core::Rl4Oasd> model,
               FleetConfig fleet_config, DriftConfig drift_config,
               AlertSink* downstream);
  ~DriftAdapter() override;

  DriftAdapter(const DriftAdapter&) = delete;
  DriftAdapter& operator=(const DriftAdapter&) = delete;

  /// The monitored fleet. StartTrip/Feed/FeedBatch/EndTrip on it directly.
  FleetMonitor* monitor() { return monitor_.get(); }

  /// Synchronous drive (background == false): drains harvested trips into
  /// the detector and buffer, and — when the detector has fired, the buffer
  /// is warm, and no backoff is pending — runs one full fine-tune → shadow
  /// gate → swap cycle before returning. Returns true when a cycle ran.
  /// Call between ingest waves; never from inside a sink callback. No-op
  /// (returns false) when a background worker owns the loop.
  bool Poll();

  DriftStatus Status() const;

  /// Plain-text metrics dump: the monitor's FleetMonitor::DumpMetrics lines
  /// followed by the drift-loop counters (`drift_*` / `harvest_*` lines,
  /// same `name value` format). One call, one consistent text block for the
  /// end-of-run summary and scrape-style tooling.
  std::string DumpMetrics() const;

  // AlertSink: forwards to the downstream sink; OnTripFinalized also
  // enqueues the trip for harvesting. Callbacks only buffer under their own
  // lock — they never call back into the monitor (the AlertSink contract).
  void OnAlert(const Alert& alert) override;
  void OnTripEnd(int64_t vehicle_id,
                 const std::vector<uint8_t>& final_labels) override;
  void OnTripEvicted(int64_t vehicle_id, double trip_start_time,
                     const std::vector<uint8_t>& labels_so_far) override;
  void OnTripFinalized(int64_t vehicle_id, traj::SdPair sd, double start_time,
                       const std::vector<traj::EdgeId>& edges,
                       const std::vector<uint8_t>& final_labels) override;
  void OnTripQuarantined(int64_t vehicle_id, double trip_start_time,
                         int64_t malformed_points) override;

 private:
  /// Drains the pending queue into detector + buffer, then runs one
  /// adaptation cycle if due. Shared by Poll and the worker loop. Returns
  /// true when a cycle ran.
  bool DrainAndMaybeAdapt();

  /// One fine-tune → shadow gate → swap cycle. Called with no locks held.
  void RunAdaptationCycle();

  /// Applies a gate verdict to the loop state: counters, backoff, detector
  /// re-arm (promotion) or un-latch (rejection).
  void RecordGateResult(bool promoted, double live_f1, double cand_f1,
                        uint64_t divergent);

  /// Replays `trips` through a monitor as synthetic vehicles and returns
  /// each trip's final labels (empty vector for a trip that could not be
  /// replayed). Scalar feeds — deterministic regardless of micro-batching.
  static std::vector<std::vector<uint8_t>> ReplayShadow(
      FleetMonitor* m, const std::vector<traj::LabeledTrajectory>& trips);

  void WorkerLoop();

  const roadnet::RoadNetwork* net_;
  FleetConfig fleet_config_;
  DriftConfig config_;
  AlertSink* downstream_;
  std::unique_ptr<FleetMonitor> monitor_;

  /// Finished trips enqueued by OnTripFinalized (under trip locks — hence
  /// rank kDriftPending > kFleetTrip), drained by Poll/worker. Guarded by
  /// pending_mu_; pending_cv_ signals the worker.
  mutable common::Mutex pending_mu_{common::lockrank::kDriftPending};
  common::CondVar pending_cv_;
  std::deque<traj::LabeledTrajectory> pending_ RL4OASD_GUARDED_BY(pending_mu_);
  bool stop_ RL4OASD_GUARDED_BY(pending_mu_) = false;

  /// Loop state: detector, buffer, counters. Guarded by state_mu_ (never
  /// held together with any monitor lock — the loop drains under
  /// pending_mu_, releases, then updates state). Only Poll/worker mutate it
  /// (single consumer); Status() reads it.
  mutable common::Mutex state_mu_{common::lockrank::kDriftState};
  DriftDetector detector_ RL4OASD_GUARDED_BY(state_mu_);
  std::deque<traj::LabeledTrajectory> buffer_ RL4OASD_GUARDED_BY(state_mu_);
  DriftStatus status_ RL4OASD_GUARDED_BY(state_mu_);
  size_t backoff_points_ RL4OASD_GUARDED_BY(state_mu_) = 0;

  std::thread worker_;  // joined by the destructor (background mode only)
};

}  // namespace rl4oasd::serve
