// Capability-annotated mutex primitives, plus a debug-build lock-order
// checker.
//
// Every lock in this repo outside common/ is one of these wrappers (the
// `raw-mutex` rule in tools/oasd_lint enforces it), which buys two things:
//
//   1. Static checking. Mutex/MutexLock/CondVar carry the Clang Thread
//      Safety Analysis attributes (common/thread_annotations.h), so
//      GUARDED_BY contracts on members are verified at compile time under
//      `clang++ -Wthread-safety -Werror`.
//
//   2. Dynamic checking. In debug builds (!NDEBUG) every thread maintains a
//      stack of the locks it holds, and each acquisition asserts the
//      repo-wide lock hierarchy: a lock may only be acquired while every
//      held lock has a strictly lower rank, or the same rank and a lower
//      address (std::less) — the address-ordered protocol FeedBatch uses to
//      take a whole wave of same-rank trip locks deadlock-free. Rank
//      inversions, recursive acquisition, and foreign unlocks abort with a
//      report of the held stack, so an interleaving that *could* deadlock
//      fails loudly on the first occurrence instead of hanging once in a
//      thousand runs. Release builds compile the tracking out entirely.
//
// The rank hierarchy (see the lock-hierarchy table in docs/ARCHITECTURE.md
// for what each level guards):
//
//   rank   mutex                          acquired while holding
//   50     IngestPipeline::Lane::mu       nothing (staging ops only; the
//                                         workers release it before feeding)
//   100    FleetMonitor::Shard::mu        nothing (map ops only)
//   200    FleetMonitor::Trip::mu         nothing, or same-rank trips in
//                                         ascending address order (waves)
//   250    AlertDeliveryQueue::mu_        trip locks (events are sequenced
//                                         and enqueued under the trip lock)
//   300    FleetMonitor::model_mu_        trip locks (lazy migration)
//   400    DriftAdapter::pending_mu_      trip locks (harvest callback)
//   500    DriftAdapter::state_mu_        nothing
//   1000   kDefault (sinks, caches, ...)  anything ranked below; must not
//                                         nest with each other
//   9900   kLogging (common/logging)      anything — logging is always legal
#pragma once

#include <condition_variable>  // oasd-lint: allow(raw-mutex)
#include <mutex>  // oasd-lint: allow(raw-mutex) — the one blessed wrapper over std::mutex

#include "common/thread_annotations.h"

namespace rl4oasd::common {

namespace lockrank {
/// Staging-queue locks of the async ingest pipeline. Below kFleetShard so a
/// misuse that feeds the monitor while still holding a lane lock fails the
/// checker immediately (the workers drain a wave first, then feed unlocked).
inline constexpr int kFleetIngest = 50;
inline constexpr int kFleetShard = 100;
inline constexpr int kFleetTrip = 200;
/// The async alert-delivery queue: events are sequence-stamped and enqueued
/// while the reporting trip's lock (and, during a FeedBatch wave, the other
/// wave trips' locks) is held, so the rank sits above kFleetTrip; the
/// drainer acquires it holding nothing.
inline constexpr int kFleetDelivery = 250;
inline constexpr int kFleetModel = 300;
inline constexpr int kDriftPending = 400;
inline constexpr int kDriftState = 500;
/// Leaf-ish mutexes with no named place in the hierarchy (sinks, caches,
/// test fixtures). They may be acquired under any lower rank but must not
/// nest with each other (the checker enforces address order if they do).
inline constexpr int kDefault = 1000;
/// The logging serialization lock: RL4_LOG must be callable under any lock.
inline constexpr int kLogging = 9900;
}  // namespace lockrank

/// A standard mutex wearing the Clang TSA capability attribute and, in
/// debug builds, enrolled in the per-thread lock-order checker. Not
/// recursive; not copyable or movable (Trips and Shards hold it by value
/// behind stable heap addresses, which the address-order protocol relies
/// on).
class RL4OASD_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(int rank = lockrank::kDefault) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() RL4OASD_ACQUIRE();
  void Unlock() RL4OASD_RELEASE();
  /// Non-blocking acquire. Try-locks cannot deadlock, so the debug checker
  /// records a success but does not enforce rank order on the attempt.
  bool TryLock() RL4OASD_TRY_ACQUIRE(true);

  int rank() const { return rank_; }

 private:
  // CondVar::Wait adopts the underlying std::mutex directly (the state is
  // kept private so repo code cannot sidestep the annotated API with std
  // lock adapters).
  friend class CondVar;

  std::mutex mu_;
  const int rank_;
};

/// Scoped lock (the default way to hold a Mutex).
class RL4OASD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) RL4OASD_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RL4OASD_RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Movable ownership of one Mutex, for *dynamic* lock sets — FleetMonitor's
/// wave step holds one per trip of a wave, released wholesale after the
/// fused step. Deliberately unannotated: the static analysis cannot model a
/// runtime-sized set of capabilities (that is what the debug address-order
/// checker is for), so the functions that use UniqueLock opt out with a
/// written rationale instead.
class UniqueLock {
 public:
  UniqueLock() = default;
  explicit UniqueLock(Mutex* mu) : mu_(mu) { mu_->Lock(); }
  UniqueLock(UniqueLock&& other) noexcept : mu_(other.mu_) {
    other.mu_ = nullptr;
  }
  UniqueLock& operator=(UniqueLock&& other) noexcept {
    if (this != &other) {
      Release();
      mu_ = other.mu_;
      other.mu_ = nullptr;
    }
    return *this;
  }
  ~UniqueLock() { Release(); }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  /// Unlocks early (no-op when empty).
  void Release() {
    if (mu_ != nullptr) {
      mu_->Unlock();
      mu_ = nullptr;
    }
  }
  bool owns() const { return mu_ != nullptr; }

 private:
  Mutex* mu_ = nullptr;
};

/// Condition variable bound to common::Mutex. Wait releases and reacquires
/// the underlying mutex without popping the debug held-lock stack: from the
/// waiting thread's point of view the lock is held across the whole block
/// (nothing else runs on that thread meanwhile), so the stack stays
/// consistent and the reacquisition needs no fresh rank check.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks until notified; `mu` is held again
  /// on return. Spurious wakeups happen — always wait in a predicate loop.
  void Wait(Mutex* mu) RL4OASD_REQUIRES(mu);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

namespace debug {
/// Number of locks the calling thread currently holds (debug builds; always
/// 0 in release). Exposed for tests of the checker itself.
size_t HeldLockCount();
}  // namespace debug

}  // namespace rl4oasd::common
