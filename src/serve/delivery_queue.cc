#include "serve/delivery_queue.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/logging.h"

namespace rl4oasd::serve {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
/// Events moved out per drain round: large enough to amortize the lock,
/// small enough that Flush and backpressured enqueuers see space promptly.
constexpr size_t kDrainChunk = 64;
}  // namespace

void Deliver(AlertSink* sink, const DeliveryEvent& event) {
  switch (event.kind) {
    case DeliveryEvent::Kind::kAlert:
      sink->OnAlert(event.alert);
      break;
    case DeliveryEvent::Kind::kTripEnd:
      sink->OnTripEnd(event.vehicle_id, event.labels);
      sink->OnTripFinalized(event.vehicle_id, event.sd, event.start_time,
                            event.edges, event.labels);
      break;
    case DeliveryEvent::Kind::kTripEvicted:
      sink->OnTripEvicted(event.vehicle_id, event.start_time, event.labels);
      break;
    case DeliveryEvent::Kind::kTripQuarantined:
      sink->OnTripQuarantined(event.vehicle_id, event.start_time,
                              event.malformed);
      break;
  }
}

AlertDeliveryQueue::AlertDeliveryQueue(AlertSink* sink, size_t capacity)
    : sink_(sink), capacity_(capacity == 0 ? 1 : capacity) {
  RL4_CHECK(sink != nullptr);
  drainer_ = std::thread([this] { DrainLoop(); });
}

AlertDeliveryQueue::~AlertDeliveryQueue() {
  {
    common::MutexLock lock(&mu_);
    stop_ = true;
    items_cv_.NotifyAll();
  }
  // The drainer delivers everything still queued before it exits, so
  // destruction never loses an event.
  drainer_.join();
}

void AlertDeliveryQueue::Enqueue(DeliveryEvent event) {
  common::MutexLock lock(&mu_);
  // Bounded + blocking: a sink that cannot keep up slows ingest down rather
  // than dropping lifecycle events (which would break the conservation
  // counters and the drift harvest). The drainer never takes a fleet lock,
  // so it always makes progress and frees space.
  while (queue_.size() >= capacity_ && !stop_) {
    space_cv_.Wait(&mu_);
  }
  event.seq = next_seq_++;
  event.enqueue_ns = clock_.ElapsedNanos();
  queue_.push_back(std::move(event));
  items_cv_.NotifyOne();
}

void AlertDeliveryQueue::Flush() {
  common::MutexLock lock(&mu_);
  while (!queue_.empty() || busy_) {
    idle_cv_.Wait(&mu_);
  }
}

int64_t AlertDeliveryQueue::AlertsDelivered() const {
  return alerts_delivered_.load(kRelaxed);
}

std::vector<int64_t> AlertDeliveryQueue::TakeLatencySamplesNs() {
  common::MutexLock lock(&mu_);
  std::vector<int64_t> out;
  if (latency_wrapped_) {
    out = latency_ns_;
  } else {
    out.assign(latency_ns_.begin(), latency_ns_.begin() +
                                        static_cast<ptrdiff_t>(latency_next_));
  }
  latency_next_ = 0;
  latency_wrapped_ = false;
  return out;
}

void AlertDeliveryQueue::DrainLoop() {
  std::vector<DeliveryEvent> chunk;
  chunk.reserve(kDrainChunk);
  for (;;) {
    bool stopping = false;
    {
      common::MutexLock lock(&mu_);
      while (queue_.empty() && !stop_) {
        items_cv_.Wait(&mu_);
      }
      stopping = stop_;
      const size_t n = std::min(queue_.size(), kDrainChunk);
      chunk.clear();
      for (size_t i = 0; i < n; ++i) {
        chunk.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      busy_ = !chunk.empty();
      if (n > 0) space_cv_.NotifyAll();
    }
    // Deliver with no lock held: the sink may be arbitrarily slow without
    // stalling enqueuers (until the queue refills) and runs outside every
    // monitor lock, per the async AlertSink contract.
    for (DeliveryEvent& event : chunk) {
      // FIFO + sequence stamped under mu_ makes delivery order the enqueue
      // order; the check pins the in-order contract at runtime.
      RL4_CHECK_EQ(event.seq, last_delivered_seq_ + 1);
      last_delivered_seq_ = event.seq;
      const int64_t start_ns = event.enqueue_ns;
      Deliver(sink_, event);
      if (event.kind == DeliveryEvent::Kind::kAlert) {
        alerts_delivered_.fetch_add(1, kRelaxed);
      }
      const int64_t latency = clock_.ElapsedNanos() - start_ns;
      common::MutexLock lock(&mu_);
      if (latency_ns_.size() < kLatencyWindow) {
        latency_ns_.push_back(latency);
        ++latency_next_;
      } else {
        latency_ns_[latency_next_] = latency;
        latency_next_ = (latency_next_ + 1) % kLatencyWindow;
        latency_wrapped_ = true;
      }
    }
    {
      common::MutexLock lock(&mu_);
      busy_ = false;
      if (queue_.empty()) {
        idle_cv_.NotifyAll();
        if (stopping) return;
      }
    }
  }
}

}  // namespace rl4oasd::serve
