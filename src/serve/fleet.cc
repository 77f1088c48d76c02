#include "serve/fleet.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "io/fleet_snapshot.h"
#include "io/model_io.h"
#include "serve/delivery_queue.h"
#include "serve/ingest_queue.h"

namespace rl4oasd::serve {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/// Rounds up to a power of two (shard indexing uses a bitmask).
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FleetMonitor::FleetMonitor(std::shared_ptr<const core::Rl4Oasd> model,
                           FleetConfig config, AlertSink* sink)
    : config_(config),
      sink_(sink),
      guard_(config.guard,
             model == nullptr ? nullptr : model->network()),
      shards_(RoundUpPow2(std::max<size_t>(config.num_shards, 1))) {
  RL4_CHECK(model != nullptr);
  RL4_CHECK_GT(config_.max_active_trips, 0u);
  // The preprocessor's normal-route caches rebuild lazily under const; warm
  // them now so concurrent sessions only ever read. The model must not be
  // retrained (Fit/FineTune) while this monitor is serving it — fine-tuned
  // refreshes come in through SwapModel as separate instances.
  model->preprocessor().WarmNormalRouteCaches();
  auto handle = std::make_shared<ModelHandle>();
  handle->generation = 1;
  handle->model = std::move(model);
  model_handle_ = std::move(handle);
  current_generation_.store(1, kRelaxed);
  // Async plumbing last: the ingest workers capture `this`, so every other
  // member must already be live when they start.
  if (sink_ != nullptr && config_.async_alerts) {
    delivery_ = std::make_unique<AlertDeliveryQueue>(
        sink_, config_.alert_queue_capacity);
  }
  if (config_.ingest_workers > 0) {
    ingest_ = std::make_unique<IngestPipeline>(this, config_, shards_.size());
  }
}

FleetMonitor::~FleetMonitor() {
  // Producers first: the ingest workers drain their lanes and may enqueue
  // delivery events while doing so; the delivery queue then flushes its
  // backlog. Reversing this order would lose the drained points' alerts.
  ingest_.reset();
  delivery_.reset();
}

FleetMonitor::FleetMonitor(const core::Rl4Oasd* model, FleetConfig config,
                           AlertSink* sink)
    : FleetMonitor(std::shared_ptr<const core::Rl4Oasd>(
                       model, [](const core::Rl4Oasd*) {}),
                   config, sink) {}

uint64_t FleetMonitor::ModelHandle::Fingerprint() const {
  std::call_once(fingerprint_once_,
                 [this] { fingerprint_ = io::ModelFingerprint(*model); });
  return fingerprint_;
}

std::shared_ptr<const FleetMonitor::ModelHandle> FleetMonitor::CurrentHandle()
    const {
  common::MutexLock lock(&model_mu_);
  return model_handle_;
}

std::shared_ptr<const core::Rl4Oasd> FleetMonitor::model() const {
  return CurrentHandle()->model;
}

uint64_t FleetMonitor::ModelGeneration() const {
  return CurrentHandle()->generation;
}

std::shared_ptr<const core::Rl4Oasd> FleetMonitor::SwapModel(
    std::shared_ptr<const core::Rl4Oasd> model) {
  RL4_CHECK(model != nullptr);
  auto fresh = std::make_shared<ModelHandle>();
  fresh->model = std::move(model);
  // Degenerate self-swap check: "fine-tuned refreshes come in through
  // SwapModel as separate instances" is an enforced contract, not a comment.
  // Identical bytes would re-prime every in-flight trip for nothing, so a
  // fingerprint-equal handle is rejected as a no-op — the incoming model is
  // handed straight back as if retired immediately. (Fingerprinting
  // serializes both models once; swaps are rare and the current handle's
  // fingerprint is memoized, so the snapshot path reuses it.)
  if (fresh->Fingerprint() == CurrentHandle()->Fingerprint()) {
    RL4_LOG(Warning) << "SwapModel called with a fingerprint-identical "
                        "model; rejecting the self-swap as a no-op";
    return fresh->model;
  }
  // Warm the lazy caches before publishing, so concurrent ingest never
  // observes a half-initialized handle.
  fresh->model->preprocessor().WarmNormalRouteCaches();
  std::shared_ptr<const ModelHandle> old;
  {
    common::MutexLock lock(&model_mu_);
    fresh->generation = model_handle_->generation + 1;
    current_generation_.store(fresh->generation, kRelaxed);
    old = std::move(model_handle_);
    model_handle_ = std::move(fresh);
  }
  return old->model;
}

void FleetMonitor::ReprimeLocked(
    Trip* trip, const std::shared_ptr<const ModelHandle>& handle) {
  trip->session = handle->model->detector().ReprimeSession(trip->session);
  trip->handle = handle;
}

Status FleetMonitor::StartTrip(int64_t vehicle_id, traj::SdPair sd,
                               double start_time) {
  Shard& shard = ShardOf(vehicle_id);
  const std::string precondition_msg =
      "vehicle " + std::to_string(vehicle_id) +
      " already has an active trip (EndTrip it first)";
  // Reject duplicates early so the common failure is cheap. (A racing
  // double-start can still reach the emplace below, which stays
  // authoritative.)
  {
    common::MutexLock lock(&shard.mu);
    if (shard.trips.contains(vehicle_id)) {
      return Status::FailedPrecondition(precondition_msg);
    }
  }
  // The session (LSTM state allocation) is built before any lock is taken.
  auto handle = CurrentHandle();
  auto trip = std::make_shared<Trip>(
      handle->model->StartSession(sd, start_time), sd, start_time,
      std::move(handle));
  // Slot reservation is atomic with admission: the emplace is the single
  // admission point, and the active-trip counter bumps under the same shard
  // lock only for an inserted trip. N concurrent admissions therefore read
  // N *distinct* reservation indices, so exactly the admissions past the
  // cap know they owe an eviction — the old check-then-insert admitted up
  // to cap + N - 1 trips with nobody evicting. A failed (duplicate) start
  // never touches the counter and never evicts; the old code evicted
  // *before* the insert, so a racing duplicate start could sacrifice an
  // innocent stalest trip and then fail anyway. (Reserving before the
  // insert and undoing on failure has the same flaw one level down: the
  // loser's transient reservation inflates a concurrent winner's count and
  // makes *it* over-evict.)
  const int64_t cap = static_cast<int64_t>(config_.max_active_trips);
  int64_t reserved = 0;
  {
    common::MutexLock lock(&shard.mu);
    const auto [it, inserted] = shard.trips.emplace(vehicle_id, trip);
    if (!inserted) {
      return Status::FailedPrecondition(precondition_msg);
    }
    reserved = active_trips_.fetch_add(1, kRelaxed) + 1;
  }
  shard.counters.Add<&Counters::trips_started>();
  if (reserved > cap) {
    // This admission overflowed the cap, so it pays for exactly one
    // eviction. The count can transiently sit above the cap (by the number
    // of in-flight admissions), but every over-cap admission evicts once,
    // so quiescent active <= cap is exact. A concurrent EndTrip can make
    // this eviction redundant (active dips below the cap); low is the safe
    // side — the cap bounds memory.
    (void)EvictStalest();
  }
  return Status::OK();
}

std::shared_ptr<FleetMonitor::Trip> FleetMonitor::ResolveTrip(
    Shard& shard, int64_t vehicle_id) {
  common::MutexLock lock(&shard.mu);
  const auto it = shard.trips.find(vehicle_id);
  return it == shard.trips.end() ? nullptr : it->second;
}

void FleetMonitor::EmitNewRuns(int64_t vehicle_id, Trip* trip, Shard* shard,
                               double timestamp, bool with_open_run) {
  auto runs = trip->session.TakeNewlyClosedRuns();
  if (with_open_run) {
    if (const auto open = trip->session.OpenRun()) runs.push_back(*open);
  }
  if (runs.empty()) return;
  const size_t position = trip->session.labels().size();
  for (const auto& run : runs) {
    DeliveryEvent event;
    event.kind = DeliveryEvent::Kind::kAlert;
    event.vehicle_id = vehicle_id;
    event.alert = Alert{vehicle_id, trip->sd, trip->start_time, run,
                        timestamp, position};
    Emit(std::move(event));
  }
  shard->counters.Add<&Counters::alerts_emitted>(
      static_cast<int64_t>(runs.size()));
}

// Emit runs under the reporting trip's lock (its callers are the wave step,
// EndTrip and FinishEvicted critical sections); enqueueing on the delivery
// queue there is rank-legal (kFleetDelivery > kFleetTrip) and is precisely
// what stamps the event sequence "under the trip lock".
void FleetMonitor::Emit(DeliveryEvent event) {
  if (sink_ == nullptr) return;
  if (delivery_ != nullptr) {
    delivery_->Enqueue(std::move(event));
  } else {
    Deliver(sink_, event);
  }
}

FleetMonitor::GuardVerdict FleetMonitor::ApplyGuard(int64_t vehicle_id,
                                                    Trip* trip, Shard* shard,
                                                    traj::EdgeId edge,
                                                    double* timestamp) {
  const IngestGuard::Decision d = guard_.Check(&trip->guard, edge,
                                               *timestamp);
  ShardCounters& c = shard->counters;
  switch (d.anomaly) {
    case IngestGuard::Anomaly::kNone:
      break;
    case IngestGuard::Anomaly::kInvalidEdge:
      c.Add<&Counters::guard_invalid_edges>();
      break;
    case IngestGuard::Anomaly::kDuplicate:
      c.Add<&Counters::guard_duplicates>();
      break;
    case IngestGuard::Anomaly::kOutOfOrder:
      c.Add<&Counters::guard_out_of_order>();
      break;
    case IngestGuard::Anomaly::kClockSkew:
      c.Add<&Counters::guard_clock_skew>();
      break;
    case IngestGuard::Anomaly::kDropout:
      c.Add<&Counters::guard_dropout_gaps>();
      break;
    case IngestGuard::Anomaly::kTeleport:
      c.Add<&Counters::guard_teleports>();
      break;
  }
  if (d.repaired) c.Add<&Counters::points_repaired>();
  if (!d.accept) {
    if (d.quarantine_dropped) {
      c.Add<&Counters::points_quarantine_dropped>();
    } else {
      c.Add<&Counters::points_rejected>();
    }
  }
  if (d.entered_quarantine) {
    c.Add<&Counters::trips_quarantined>();
    // Emitted here, under the trip lock, so the quarantine notice is
    // sequenced against the trip's alerts exactly like every other
    // lifecycle event.
    DeliveryEvent event;
    event.kind = DeliveryEvent::Kind::kTripQuarantined;
    event.vehicle_id = vehicle_id;
    event.start_time = trip->start_time;
    event.malformed = trip->guard.malformed_total;
    Emit(std::move(event));
  }
  if (d.recovered) c.Add<&Counters::trips_recovered>();
  *timestamp = d.timestamp;
  return GuardVerdict{d.accept, d.evict};
}

// Analysis opt-out rationale: a wave holds a *runtime-sized set* of trip
// locks (one common::UniqueLock per slot), which Clang TSA cannot model
// (capabilities must be compile-time expressions). The protocol is enforced
// elsewhere on both axes: the debug-build rank checker asserts the
// ascending-address same-rank acquisition order at runtime on every wave,
// and the TSAN CI job stresses concurrent Feed/FeedBatch callers against
// SwapModel and the evictors.
void FleetMonitor::StepWave(std::span<WaveSlot> slots)
    RL4OASD_NO_THREAD_SAFETY_ANALYSIS {
  using Outcome = WaveSlot::Outcome;
  // The relaxed generation hint keeps the steady state free of the model
  // mutex and the handle refcount: the current handle is fetched only when
  // some trip is pinned to an older generation than the hint.
  const uint64_t generation = current_generation_.load(kRelaxed);
  std::shared_ptr<const ModelHandle> current;
  // The wave's model: the first live trip's. Its lock is held until the
  // fused step is done, so the handle outlives the step.
  const ModelHandle* wave = nullptr;
  size_t fused = 0;
  for (WaveSlot& slot : slots) {
    Trip* const trip = slot.trip;
    // std::less<Trip*> order across every caller, so concurrent waves and
    // the single-lock paths cannot deadlock.
    slot.lock = common::UniqueLock(&trip->mu);
    // A finisher (EndTrip/eviction) erases the trip from the shard map
    // *before* setting finished, so the caller's fresh resolve sees either
    // nothing or the vehicle's next trip.
    if (trip->finished) {
      slot.outcome = Outcome::kFinished;
      continue;
    }
    // Lazy hot-swap migration: a trip still primed against a retired model
    // replays its history through the current one before this point.
    if (trip->handle->generation < generation) {
      if (current == nullptr) current = CurrentHandle();
      if (trip->handle->generation < current->generation) {
        ReprimeLocked(trip, current);
      }
    }
    // One model per fused step. A trip that a racing SwapModel moved past
    // the wave's model is left, unguarded, for the next round, so the guard
    // sees each point exactly once.
    if (wave == nullptr) wave = trip->handle.get();
    if (trip->handle.get() != wave) {
      slot.outcome = Outcome::kDeferred;
      continue;
    }
    // The input contract runs before the session sees anything. The
    // timestamp comes back rewritten to the trip's monotone clock, which is
    // what staleness and alert timestamps record.
    const GuardVerdict v = ApplyGuard(slot.vehicle_id, trip, slot.shard,
                                      slot.edge, &slot.timestamp);
    trip->last_update.store(slot.timestamp, kRelaxed);
    if (!v.accept) {
      const bool quarantined = trip->guard.quarantined || v.evict;
      slot.outcome = quarantined ? Outcome::kQuarantined : Outcome::kRejected;
      slot.evict = v.evict;
      continue;
    }
    slot.outcome = Outcome::kFed;
    ++fused;
  }
  if (fused > 0) {
    // Scratch reused across calls on this thread (no per-point allocation).
    // It is live only until the labels are copied out, before any sink
    // callback runs.
    struct Scratch {
      std::vector<core::OnlineDetector::Session*> sessions;
      std::vector<traj::EdgeId> edges;
      std::vector<int> labels;
    };
    static thread_local Scratch scratch;
    scratch.sessions.clear();
    scratch.edges.clear();
    for (const WaveSlot& slot : slots) {
      if (slot.outcome != Outcome::kFed) continue;
      scratch.sessions.push_back(&slot.trip->session);
      scratch.edges.push_back(slot.edge);
    }
    scratch.labels.resize(fused);
    wave->model->detector().FeedBatch(scratch.sessions, scratch.edges,
                                      scratch.labels.data());
    size_t k = 0;
    for (WaveSlot& slot : slots) {
      if (slot.outcome == Outcome::kFed) slot.label = scratch.labels[k++];
    }
    for (const WaveSlot& slot : slots) {
      if (slot.outcome != Outcome::kFed) continue;
      EmitNewRuns(slot.vehicle_id, slot.trip, slot.shard, slot.timestamp);
      slot.shard->counters.Add<&Counters::points_processed>();
    }
  }
  for (WaveSlot& slot : slots) slot.lock.Release();
  // No wave lock held: eviction re-acquires shard then trip locks, which
  // the rank hierarchy forbids under a trip lock.
  for (const WaveSlot& slot : slots) {
    if (slot.evict) EvictQuarantined(slot.vehicle_id, slot.trip);
  }
}

Result<int> FleetMonitor::Feed(int64_t vehicle_id, traj::EdgeId edge,
                               double timestamp) {
  Shard& shard = ShardOf(vehicle_id);
  for (;;) {
    const std::shared_ptr<Trip> trip = ResolveTrip(shard, vehicle_id);
    if (trip == nullptr) {
      return Status::NotFound("vehicle " + std::to_string(vehicle_id) +
                              " has no active trip");
    }
    WaveSlot slot{trip.get(), &shard, vehicle_id, edge, timestamp};
    StepWave({&slot, 1});
    switch (slot.outcome) {
      case WaveSlot::Outcome::kFed:
        return slot.label;
      case WaveSlot::Outcome::kRejected:
        return Status::InvalidArgument(
            "point rejected by the ingest guard for vehicle " +
            std::to_string(vehicle_id));
      case WaveSlot::Outcome::kQuarantined:
        return Status::ResourceExhausted(
            "vehicle " + std::to_string(vehicle_id) +
            " is quarantined (malformed-point budget exceeded); point dropped");
      case WaveSlot::Outcome::kFinished:
      case WaveSlot::Outcome::kDeferred:
        // Ended under us: re-resolve rather than drop a point the
        // vehicle's live trip should get. (A one-slot wave never defers:
        // its trip's model is the wave's.)
        continue;
    }
  }
}

size_t FleetMonitor::FeedBatch(std::span<const FleetPoint> points) {
  if (points.empty()) return 0;
  const size_t num_shards = shards_.size();
  // Counting-sort point indices by shard — stable, so a vehicle's points
  // keep their relative order — then resolve every point's trip with one
  // shard-lock acquisition per shard.
  std::vector<size_t> offsets(num_shards + 1, 0);
  for (const FleetPoint& p : points) ++offsets[ShardIndexOf(p.vehicle_id) + 1];
  for (size_t s = 0; s < num_shards; ++s) offsets[s + 1] += offsets[s];
  std::vector<size_t> order(points.size());
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t i = 0; i < points.size(); ++i) {
    order[cursor[ShardIndexOf(points[i].vehicle_id)]++] = i;
  }
  std::vector<std::shared_ptr<Trip>> resolved(points.size());
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t begin = offsets[s];
    const size_t end = offsets[s + 1];
    if (begin == end) continue;
    Shard& shard = shards_[s];
    common::MutexLock lock(&shard.mu);
    for (size_t k = begin; k < end; ++k) {
      const auto it = shard.trips.find(points[order[k]].vehicle_id);
      if (it != shard.trips.end()) resolved[k] = it->second;
    }
  }

  // Group each trip's points into a per-trip queue by sorting (trip
  // address, arrival index) pairs: one O(n log n) pass, no per-trip
  // allocations, and the resulting group order doubles as the wave step's
  // lock-acquisition order. One resolve pass per batch means every point
  // of a vehicle maps to the same Trip pointer; restarts mid-batch surface
  // as `finished` in the step. `resolved` keeps every grouped Trip alive
  // for the whole call.
  std::vector<std::pair<Trip*, size_t>> items;  // (trip, index into points)
  items.reserve(points.size());
  for (size_t k = 0; k < points.size(); ++k) {
    if (resolved[k] != nullptr) {
      items.emplace_back(resolved[k].get(), order[k]);
    }
  }
  // std::less, not raw `<`: deadlock freedom needs every concurrent caller
  // to agree on one total order over unrelated Trip pointers, which only
  // std::less guarantees.
  std::sort(items.begin(), items.end(),
            [](const std::pair<Trip*, size_t>& a,
               const std::pair<Trip*, size_t>& b) {
              if (a.first != b.first) {
                return std::less<Trip*>{}(a.first, b.first);
              }
              return a.second < b.second;
            });
  struct TripGroup {
    size_t next;   // current queue position in `items`
    size_t end;    // one past the queue's last position
    Shard* shard;
    bool fallback = false;  // trip ended mid-batch; rest goes through Feed
  };
  std::vector<TripGroup> groups;
  for (size_t begin = 0; begin < items.size();) {
    size_t end = begin + 1;
    while (end < items.size() && items[end].first == items[begin].first) {
      ++end;
    }
    groups.push_back(TripGroup{
        begin, end, &ShardOf(points[items[begin].second].vehicle_id)});
    begin = end;
  }

  // Wave loop: each round offers the next point of every still-active trip
  // to the wave step, `micro_batch` trips per step. Groups are visited in
  // Trip-address order, which is the order the step locks them in.
  const size_t wave_cap = std::max<size_t>(size_t{1}, config_.micro_batch);
  size_t fed = 0;
  // `active` holds the still-live group indices and is compacted once per
  // round (not rebuilt), so a skewed batch — one deep per-trip queue among
  // many short ones — costs O(total points), not O(rounds * groups).
  std::vector<size_t> active;
  active.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) active.push_back(g);
  std::vector<WaveSlot> slots;
  slots.reserve(std::min(wave_cap, groups.size()));
  while (!active.empty()) {
    for (size_t chunk = 0; chunk < active.size(); chunk += wave_cap) {
      const size_t chunk_end = std::min(active.size(), chunk + wave_cap);
      slots.clear();
      for (size_t i = chunk; i < chunk_end; ++i) {
        const TripGroup& g = groups[active[i]];
        const FleetPoint& p = points[items[g.next].second];
        slots.push_back(WaveSlot{items[g.next].first, g.shard, p.vehicle_id,
                                 p.edge, p.timestamp});
      }
      StepWave(slots);
      for (size_t i = chunk; i < chunk_end; ++i) {
        TripGroup& g = groups[active[i]];
        const WaveSlot::Outcome outcome = slots[i - chunk].outcome;
        if (outcome == WaveSlot::Outcome::kFinished) {
          // Ended under us (EndTrip or eviction, possibly followed by a
          // same-vehicle restart): the rest goes through Feed, which
          // re-resolves.
          g.fallback = true;
        } else if (outcome != WaveSlot::Outcome::kDeferred) {
          if (outcome == WaveSlot::Outcome::kFed) ++fed;
          ++g.next;  // a deferred point waits for the next round
        }
      }
    }
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](size_t g) {
                                  return groups[g].fallback ||
                                         groups[g].next >= groups[g].end;
                                }),
                 active.end());
  }

  // Deferred fallback: trips that ended mid-batch.
  for (const TripGroup& g : groups) {
    if (!g.fallback) continue;
    for (size_t k = g.next; k < g.end; ++k) {
      const FleetPoint& p = points[items[k].second];
      if (Feed(p.vehicle_id, p.edge, p.timestamp).ok()) ++fed;
    }
  }
  return fed;
}

Status FleetMonitor::Submit(const FleetPoint& point) {
  if (ingest_ == nullptr) {
    return Status::FailedPrecondition(
        "async ingest is disabled (FleetConfig::ingest_workers == 0); use "
        "Feed/FeedBatch or configure workers");
  }
  if (!ingest_->Submit(point)) {
    return Status::ResourceExhausted(
        "ingest lane full; point shed (OverloadPolicy::kShed)");
  }
  return Status::OK();
}

size_t FleetMonitor::SubmitBatch(std::span<const FleetPoint> points) {
  if (ingest_ == nullptr) return 0;
  return ingest_->SubmitBatch(points);
}

Status FleetMonitor::SubmitEndTrip(int64_t vehicle_id) {
  if (ingest_ == nullptr) {
    return Status::FailedPrecondition(
        "async ingest is disabled (FleetConfig::ingest_workers == 0); use "
        "EndTrip");
  }
  ingest_->SubmitEnd(vehicle_id);
  return Status::OK();
}

void FleetMonitor::Quiesce() {
  // Order matters: draining the lanes can enqueue delivery events, so the
  // delivery flush must come second to cover them.
  if (ingest_ != nullptr) ingest_->Quiesce();
  if (delivery_ != nullptr) delivery_->Flush();
}

Result<std::vector<uint8_t>> FleetMonitor::EndTrip(int64_t vehicle_id) {
  Shard& shard = ShardOf(vehicle_id);
  std::shared_ptr<Trip> trip;
  {
    common::MutexLock lock(&shard.mu);
    const auto it = shard.trips.find(vehicle_id);
    if (it == shard.trips.end()) {
      return Status::NotFound("vehicle " + std::to_string(vehicle_id) +
                              " has no active trip");
    }
    trip = std::move(it->second);
    shard.trips.erase(it);
  }
  active_trips_.fetch_sub(1, kRelaxed);
  std::vector<uint8_t> labels;
  {
    Trip* const t = trip.get();
    common::MutexLock lock(&t->mu);
    t->finished = true;
    // Finish settles Delayed Labeling over the whole trip; any run not yet
    // alerted (including one still open: reaching the destination closes it
    // by definition) becomes takable and is emitted here.
    labels = t->session.Finish();
    EmitNewRuns(vehicle_id, t, &shard, t->last_update.load(kRelaxed));
    if (sink_ != nullptr) {
      // OnTripEnd plus the harvesting OnTripFinalized: a completed trip's
      // (edges, final labels) pair is a ready-made training sample for
      // online learning. Exactly once per trip — `finished` above makes
      // this EndTrip the only one that reaches here, so the finished
      // session's edge history moves into the event.
      DeliveryEvent end;
      end.kind = DeliveryEvent::Kind::kTripEnd;
      end.vehicle_id = vehicle_id;
      end.sd = t->sd;
      end.start_time = t->start_time;
      end.edges = t->session.TakeEdges();
      end.labels = labels;
      Emit(std::move(end));
    }
  }
  shard.counters.Add<&Counters::trips_finished>();
  return labels;
}

void FleetMonitor::FinishEvicted(int64_t vehicle_id, Trip* trip,
                                 Shard* shard) {
  active_trips_.fetch_sub(1, kRelaxed);
  {
    common::MutexLock lock(&trip->mu);
    trip->finished = true;
    // Runs that became final but were never drained, then the still-open
    // tail: eviction must not silently drop an anomaly in progress.
    EmitNewRuns(vehicle_id, trip, shard, trip->last_update.load(kRelaxed),
                /*with_open_run=*/true);
    if (sink_ != nullptr) {
      DeliveryEvent evicted;
      evicted.kind = DeliveryEvent::Kind::kTripEvicted;
      evicted.vehicle_id = vehicle_id;
      evicted.start_time = trip->start_time;
      evicted.labels = trip->session.labels();
      Emit(std::move(evicted));
    }
  }
  shard->counters.Add<&Counters::trips_evicted>();
}

void FleetMonitor::EvictQuarantined(int64_t vehicle_id, Trip* trip) {
  Shard& shard = ShardOf(vehicle_id);
  {
    common::MutexLock lock(&shard.mu);
    const auto it = shard.trips.find(vehicle_id);
    // Identity check, not just vehicle id: EndTrip, a stale/stalest
    // eviction, or a duplicate quarantine-evict signal may have removed
    // this trip already (and the vehicle may even be on a new trip). Losing
    // the race means someone else finished the trip — nothing owed here.
    if (it == shard.trips.end() || it->second.get() != trip) return;
    shard.trips.erase(it);
  }
  FinishEvicted(vehicle_id, trip, &shard);
  shard.counters.Add<&Counters::quarantine_evictions>();
}

size_t FleetMonitor::EvictStale(double now) {
  size_t evicted = 0;
  for (Shard& shard : shards_) {
    std::vector<std::pair<int64_t, std::shared_ptr<Trip>>> victims;
    {
      common::MutexLock lock(&shard.mu);
      for (auto it = shard.trips.begin(); it != shard.trips.end();) {
        if (now - it->second->last_update.load(kRelaxed) >
            config_.trip_timeout_s) {
          victims.emplace_back(it->first, std::move(it->second));
          it = shard.trips.erase(it);
        } else {
          ++it;
        }
      }
    }
    // Notify outside the shard lock so other vehicles keep flowing while
    // the sink handles the evictions.
    for (auto& [vehicle, trip] : victims) {
      FinishEvicted(vehicle, trip.get(), &shard);
    }
    evicted += victims.size();
  }
  return evicted;
}

bool FleetMonitor::EvictStalest() {
  // Two passes per attempt: find the globally stalest trip, then remove it,
  // rechecking the trip's *identity* (not just the vehicle id) — a trip
  // that ended or was replaced by a same-vehicle restart between the passes
  // must be spared. Losing that race retries the scan: the caller is an
  // over-cap admission that still owes the hierarchy one eviction, so
  // "someone else removed my victim" must not silently count as mine.
  for (;;) {
    int64_t victim = 0;
    std::shared_ptr<Trip> observed;
    double oldest = std::numeric_limits<double>::infinity();
    for (Shard& shard : shards_) {
      common::MutexLock lock(&shard.mu);
      for (const auto& [vehicle, trip] : shard.trips) {
        const double last = trip->last_update.load(kRelaxed);
        if (last < oldest) {
          oldest = last;
          victim = vehicle;
          observed = trip;
        }
      }
    }
    if (observed == nullptr) return false;
    Shard& shard = ShardOf(victim);
    std::shared_ptr<Trip> trip;
    {
      common::MutexLock lock(&shard.mu);
      const auto it = shard.trips.find(victim);
      if (it == shard.trips.end() || it->second != observed) continue;
      trip = std::move(it->second);
      shard.trips.erase(it);
    }
    FinishEvicted(victim, trip.get(), &shard);
    return true;
  }
}

size_t FleetMonitor::ActiveTrips() const {
  const int64_t n = active_trips_.load(kRelaxed);
  return n > 0 ? static_cast<size_t>(n) : 0;
}

FleetStats FleetMonitor::Stats() const {
  FleetStats stats;
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < io::kNumFleetCounters; ++i) {
      stats.*io::kFleetCounterFields[i].member +=
          shard.counters.values[i].load(kRelaxed);
    }
  }
  if (ingest_ != nullptr) {
    stats.points_submitted = ingest_->PointsSubmitted();
    stats.points_shed = ingest_->PointsShed();
  }
  stats.alerts_delivered = delivery_ != nullptr ? delivery_->AlertsDelivered()
                                                : stats.alerts_emitted;
  return stats;
}

Result<double> FleetMonitor::TripHealth(int64_t vehicle_id) {
  Shard& shard = ShardOf(vehicle_id);
  const std::shared_ptr<Trip> trip = ResolveTrip(shard, vehicle_id);
  if (trip == nullptr) {
    return Status::NotFound("vehicle " + std::to_string(vehicle_id) +
                            " has no active trip");
  }
  common::MutexLock lock(&trip->mu);
  return guard_.HealthScore(trip->guard);
}

Result<bool> FleetMonitor::TripQuarantined(int64_t vehicle_id) {
  Shard& shard = ShardOf(vehicle_id);
  const std::shared_ptr<Trip> trip = ResolveTrip(shard, vehicle_id);
  if (trip == nullptr) {
    return Status::NotFound("vehicle " + std::to_string(vehicle_id) +
                            " has no active trip");
  }
  common::MutexLock lock(&trip->mu);
  return trip->guard.quarantined;
}

std::string FleetMonitor::DumpMetrics() const {
  const FleetStats s = Stats();
  std::string out;
  out.reserve(1024);
  const auto line = [&out](std::string_view name, int64_t value) {
    out.append(name);
    out.push_back(' ');
    out.append(std::to_string(value));
    out.push_back('\n');
  };
  for (const io::FleetCounterField& f : io::kFleetCounterFields) {
    line(f.metric, s.*f.member);
  }
  line("fleet_trips_active", static_cast<int64_t>(ActiveTrips()));
  line("fleet_points_submitted", s.points_submitted);
  line("fleet_points_shed", s.points_shed);
  line("fleet_alerts_delivered", s.alerts_delivered);
  line("model_generation", static_cast<int64_t>(ModelGeneration()));
  return out;
}

std::vector<int64_t> FleetMonitor::TakeAlertLatencySamplesNs() {
  if (delivery_ == nullptr) return {};
  return delivery_->TakeLatencySamplesNs();
}

Status FleetMonitor::Snapshot(BinaryWriter* w, std::string_view user_meta) {
  const auto handle = CurrentHandle();
  const FleetStats stats = Stats();

  // Quiesce shard by shard: the trip list is copied under the shard lock
  // (map mutations pause for microseconds), then every trip serializes
  // under only its own lock — ingest for all other trips keeps flowing.
  std::vector<std::tuple<int64_t, double, std::string, std::string>> records;
  std::vector<std::pair<int64_t, std::shared_ptr<Trip>>> shard_trips;
  for (Shard& shard : shards_) {
    shard_trips.clear();
    {
      common::MutexLock lock(&shard.mu);
      shard_trips.reserve(shard.trips.size());
      for (const auto& [vehicle, trip] : shard.trips) {
        shard_trips.emplace_back(vehicle, trip);
      }
    }
    for (auto& [vehicle, trip] : shard_trips) {
      common::MutexLock lock(&trip->mu);
      if (trip->finished) continue;  // ended while we walked the shard
      // Migrate stragglers first so every record is primed against the
      // fingerprint stamped in the header.
      if (trip->handle->generation < handle->generation) {
        ReprimeLocked(trip.get(), handle);
      }
      if (trip->handle != handle) {
        return Status::FailedPrecondition(
            "model was hot-swapped while the snapshot was being taken; "
            "retry the snapshot");
      }
      BinaryWriter session;
      trip->session.ExportState(&session);
      BinaryWriter guard_state;
      trip->guard.ExportState(&guard_state);
      records.emplace_back(vehicle, trip->last_update.load(kRelaxed),
                           session.buffer(), guard_state.buffer());
    }
  }

  // Canonical record order: shard-map iteration order depends on insertion
  // history, so sort by vehicle id — snapshotting a restored fleet then
  // reproduces the original snapshot bit for bit.
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) {
              return std::get<0>(a) < std::get<0>(b);
            });

  // Assemble into a local writer and publish all-or-nothing: an aborted
  // snapshot (mid-swap above) must not leave a partial header in the
  // caller's buffer, which would corrupt a retry into the same writer.
  BinaryWriter out;
  out.WriteBytes(io::kFleetSnapshotMagic, 4);
  out.WriteU32(io::kFleetSnapshotVersion);
  out.WriteU64(handle->Fingerprint());
  out.WriteString(user_meta);
  for (const io::FleetCounterField& f : io::kFleetCounterFields) {
    out.WriteI64(stats.*f.member);
  }
  out.WriteU64(records.size());
  for (const auto& [vehicle, last_update, blob, guard_blob] : records) {
    out.WriteI64(vehicle);
    out.WriteF64(last_update);
    out.WriteString(blob);
    out.WriteString(guard_blob);
  }
  w->WriteBytes(out.buffer().data(), out.buffer().size());
  return Status::OK();
}

Status FleetMonitor::Restore(BinaryReader* r, RestoreInfo* info) {
  const auto handle = CurrentHandle();
  io::FleetSnapshotHeader header;
  RL4_RETURN_NOT_OK(io::ReadFleetSnapshotHeader(r, &header));
  if (header.model_fingerprint != handle->Fingerprint()) {
    return Status::FailedPrecondition(
        "snapshot was taken with a different model bundle (fingerprint " +
        std::to_string(header.model_fingerprint) + ", serving " +
        std::to_string(handle->Fingerprint()) +
        "); restoring live LSTM states against other weights would "
        "silently diverge");
  }
  uint64_t num_trips;
  RL4_RETURN_NOT_OK(io::ReadFleetSnapshotTripCount(r, &num_trips));

  // Two-phase restore: parse and validate every trip first, publish only
  // when the whole snapshot checked out — a corrupt record must not leave
  // a half-restored fleet behind.
  std::vector<std::shared_ptr<Trip>> parsed;
  std::vector<RestoredTrip> restored;
  std::unordered_set<int64_t> seen;
  parsed.reserve(num_trips);
  restored.reserve(num_trips);
  for (uint64_t i = 0; i < num_trips; ++i) {
    int64_t vehicle;
    double last_update;
    std::string blob;
    std::string guard_blob;
    RL4_RETURN_NOT_OK(r->ReadI64(&vehicle));
    RL4_RETURN_NOT_OK(r->ReadF64(&last_update));
    RL4_RETURN_NOT_OK(r->ReadString(&blob));
    RL4_RETURN_NOT_OK(r->ReadString(&guard_blob));
    if (!seen.insert(vehicle).second) {
      return Status::InvalidArgument(
          "snapshot lists vehicle " + std::to_string(vehicle) + " twice");
    }
    BinaryReader session_reader(std::move(blob));
    auto session = handle->model->StartSession({}, 0.0);
    RL4_RETURN_NOT_OK(session.ImportState(&session_reader));
    if (!session_reader.AtEnd()) {
      return Status::IOError("trailing bytes in trip session record");
    }
    if (session.finished()) {
      return Status::InvalidArgument(
          "snapshot contains an already-finished trip");
    }
    BinaryReader guard_reader(std::move(guard_blob));
    IngestGuard::State guard_state;
    RL4_RETURN_NOT_OK(guard_state.ImportState(
        &guard_reader, handle->model->network()->NumEdges()));
    if (!guard_reader.AtEnd()) {
      return Status::IOError("trailing bytes in trip guard record");
    }
    const traj::SdPair sd = session.sd();
    const double start_time = session.start_time();
    const size_t points_fed = session.labels().size();
    auto trip = std::make_shared<Trip>(std::move(session), sd, start_time,
                                       handle);
    trip->last_update.store(last_update, kRelaxed);
    {
      // Not yet published (this monitor is still empty), but the lock keeps
      // the GUARDED_BY contract analysis-clean and costs nothing here.
      common::MutexLock lock(&trip->mu);
      trip->guard = guard_state;
    }
    parsed.push_back(std::move(trip));
    restored.push_back(RestoredTrip{vehicle, sd, start_time, points_fed});
  }
  if (!r->AtEnd()) {
    return Status::IOError("trailing bytes after fleet snapshot payload");
  }
  for (Shard& shard : shards_) {
    common::MutexLock lock(&shard.mu);
    if (!shard.trips.empty()) {
      return Status::FailedPrecondition(
          "restore requires an empty monitor (fresh-process restore)");
    }
  }

  for (size_t i = 0; i < parsed.size(); ++i) {
    Shard& shard = ShardOf(restored[i].vehicle_id);
    common::MutexLock lock(&shard.mu);
    shard.trips.emplace(restored[i].vehicle_id, std::move(parsed[i]));
  }
  active_trips_.fetch_add(static_cast<int64_t>(parsed.size()), kRelaxed);
  // Resume the service counters where the snapshot left them (folded into
  // shard 0; Stats() aggregates), so conservation spans the restart. The
  // started count is re-derived from the conservation identity rather than
  // trusted: a snapshot taken under live ingest reads its counters and
  // walks its shards at slightly different instants, so the stored value
  // can be offset by in-flight starts — deriving it keeps
  // started == finished + evicted + active exact after every restore (and
  // is identical to the stored value for a quiesced snapshot).
  // ReadFleetSnapshotHeader bounded this sum, so it cannot overflow.
  header.trips_started = header.trips_finished + header.trips_evicted +
                         static_cast<int64_t>(parsed.size());
  ShardCounters& counters = shards_[0].counters;
  for (size_t i = 0; i < io::kNumFleetCounters; ++i) {
    counters.values[i].fetch_add(header.*io::kFleetCounterFields[i].member,
                                 kRelaxed);
  }

  if (info != nullptr) {
    info->user_meta = std::move(header.user_meta);
    info->trips = std::move(restored);
  }
  return Status::OK();
}

}  // namespace rl4oasd::serve
