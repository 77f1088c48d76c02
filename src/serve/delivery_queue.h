// Alert delivery: the one sink dispatch, and the bounded, sequence-ordered
// event queue that runs it on a drainer thread.
//
// FleetMonitor captures every AlertSink callback as a DeliveryEvent under
// the reporting trip's lock, and Deliver is the one switch that turns an
// event back into a callback. Without FleetConfig::async_alerts the monitor
// calls Deliver inline — under that trip's lock, and during a FeedBatch
// wave under the *other* wave trips' locks too — so one slow sink stalls up
// to micro_batch trips. With async_alerts the monitor instead enqueues the
// event while it still holds the trip lock (which is what stamps it with
// its global sequence number) and returns; a dedicated drainer thread pops
// events in sequence order and calls Deliver with **no monitor lock held**.
// Because every event of one trip is enqueued under that trip's lock, FIFO
// delivery preserves the in-order-per-trip contract documented on
// AlertSink.
//
// The queue is bounded (FleetConfig::alert_queue_capacity) and never drops:
// lifecycle events (trip end / eviction / finalization) are load-bearing for
// the conservation counters and for DriftAdapter's harvest, so when the sink
// cannot keep up the *enqueuer* blocks — backpressure, not data loss. The
// drainer needs no fleet lock to make progress, so a blocked enqueuer (even
// one holding a whole wave of trip locks) always unblocks.
//
// Determinism contract: the queue reads a wall clock only to timestamp
// events for the delivery-latency histogram (common/stopwatch.h, the
// blessed reporting wrapper) — no control flow depends on it.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "serve/fleet.h"

namespace rl4oasd::serve {

/// One sink callback, captured by value so it can outlive the trip that
/// produced it (the session is gone by delivery time for end/evict events).
/// The fields a kind does not use stay empty.
struct DeliveryEvent {
  enum class Kind : uint8_t {
    kAlert,
    /// A completed trip: OnTripEnd, then OnTripFinalized.
    kTripEnd,
    kTripEvicted,
    kTripQuarantined,
  };
  Kind kind = Kind::kAlert;
  /// Global delivery order, stamped at enqueue time — i.e. under the
  /// reporting trip's lock — and asserted monotonic by the drainer.
  uint64_t seq = 0;
  Alert alert;  // kAlert only
  int64_t vehicle_id = 0;  // every kind
  traj::SdPair sd;          // kTripEnd
  double start_time = 0.0;  // every kind but kAlert
  std::vector<uint8_t> labels;      // kTripEnd / kTripEvicted
  std::vector<traj::EdgeId> edges;  // kTripEnd
  /// Lifetime malformed-point count at quarantine entry (kTripQuarantined).
  int64_t malformed = 0;
  /// Reporting-only enqueue timestamp for the latency histogram.
  int64_t enqueue_ns = 0;
};

/// The one sink dispatch: invokes the `sink` callback that `event` captures.
/// FleetMonitor calls it inline in synchronous mode; AlertDeliveryQueue's
/// drainer calls it off every monitor lock in asynchronous mode.
void Deliver(AlertSink* sink, const DeliveryEvent& event);

/// Bounded FIFO of DeliveryEvents with one owned drainer thread. Thread-safe;
/// the destructor delivers everything still queued, then joins.
class AlertDeliveryQueue {
 public:
  /// `sink` must be non-null and outlive the queue. `capacity` bounds the
  /// number of undelivered events; Enqueue blocks while at capacity.
  AlertDeliveryQueue(AlertSink* sink, size_t capacity);
  ~AlertDeliveryQueue();
  AlertDeliveryQueue(const AlertDeliveryQueue&) = delete;
  AlertDeliveryQueue& operator=(const AlertDeliveryQueue&) = delete;

  /// Stamps `event.seq` and `event.enqueue_ns`, then appends. Blocks while
  /// the queue is full. Safe to call while holding trip locks (rank
  /// kFleetDelivery > kFleetTrip); the caller must hold no lock ranked at or
  /// above kFleetDelivery.
  void Enqueue(DeliveryEvent event);

  /// Blocks until every event enqueued before the call has been delivered
  /// (queue empty and the drainer idle).
  void Flush();

  /// OnAlert callbacks completed by the drainer (monotonic).
  int64_t AlertsDelivered() const;

  /// Drains the enqueue→delivery latency samples collected so far (a
  /// sliding window of the most recent kLatencyWindow deliveries;
  /// nanoseconds, unordered). Reporting surface for bench_fleet_soak.
  std::vector<int64_t> TakeLatencySamplesNs();

 private:
  /// Most recent deliveries whose latency is retained for percentiles.
  static constexpr size_t kLatencyWindow = 1 << 16;

  void DrainLoop();

  AlertSink* const sink_;
  const size_t capacity_;
  Stopwatch clock_;  // reporting only: latency histogram timestamps

  mutable common::Mutex mu_{common::lockrank::kFleetDelivery};
  common::CondVar items_cv_;
  common::CondVar space_cv_;
  common::CondVar idle_cv_;
  std::deque<DeliveryEvent> queue_ RL4OASD_GUARDED_BY(mu_);
  uint64_t next_seq_ RL4OASD_GUARDED_BY(mu_) = 1;
  bool busy_ RL4OASD_GUARDED_BY(mu_) = false;
  bool stop_ RL4OASD_GUARDED_BY(mu_) = false;
  /// Ring buffer of the last kLatencyWindow delivery latencies.
  std::vector<int64_t> latency_ns_ RL4OASD_GUARDED_BY(mu_);
  size_t latency_next_ RL4OASD_GUARDED_BY(mu_) = 0;
  bool latency_wrapped_ RL4OASD_GUARDED_BY(mu_) = false;

  std::atomic<int64_t> alerts_delivered_{0};
  uint64_t last_delivered_seq_ = 0;  // drainer thread only

  std::thread drainer_;
};

}  // namespace rl4oasd::serve
