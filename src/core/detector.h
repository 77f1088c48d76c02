// The online RL4OASD detector (paper Algorithm 1) with its two enhancements:
//   * Road Network Enhanced Labeling (RNEL) — degree-based rules make some
//     labels deterministic, skipping the policy network, and
//   * Delayed Labeling (DL) — a D-segment lookahead merges anomalous
//     fragments separated by short normal gaps.
// The detector is streaming: Session consumes one road segment at a time,
// which is what the per-point efficiency experiments (Figure 3) measure.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/binary.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/asdnet.h"
#include "core/preprocess.h"
#include "core/rsrnet.h"
#include "roadnet/road_network.h"
#include "traj/types.h"

namespace rl4oasd::core {

struct DetectorConfig {
  bool use_rnel = true;
  bool use_dl = true;
  int delay_d = 8;          // paper: D = 8
  // Route-level boundary trimming: edges at the ends of a formed anomalous
  // run that lie on an inferred normal route are relabeled normal. A
  // transition-level detector always flags the segment where a detour
  // rejoins the normal route (its incoming transition is rare even though
  // the segment itself is normal); trimming aligns the reported boundary
  // with the route-level ground truth. Uses only historical statistics and
  // one segment of lookahead, so it stays online-compatible.
  bool use_boundary_trim = true;
  bool stochastic = false;  // sample vs argmax actions at detection time
  uint64_t seed = 11;
};

/// Applies the Delayed-Labeling merge to a finished label sequence: a run of
/// 0s of length <= D sandwiched between 1s is converted to 1s (paper: scan D
/// more segments after a boundary and extend to the last 1 found, so a zero
/// gap of exactly D is still within the lookahead).
void ApplyDelayedLabeling(std::vector<uint8_t>* labels, int delay_d);

/// Incrementally maintains the post-Delayed-Labeling run structure of a
/// streaming 0/1 label sequence in O(1) per label. A run becomes *final*
/// once no future label can reach it: DL merges a zero gap of at most D, so
/// a run followed by D+1 zeros can never change again. Feeding the raw
/// per-point labels reproduces exactly the runs that ApplyDelayedLabeling +
/// traj::ExtractAnomalousRuns would compute on the same prefix.
class RunTracker {
 public:
  /// `delay_d` <= 0 disables merging (a run is final at its first zero).
  explicit RunTracker(int delay_d) : d_(delay_d > 0 ? delay_d : 0) {}

  /// Consumes the next label; returns the run that just became final, if
  /// any. Runs are returned in order and exactly once each.
  std::optional<traj::Subtrajectory> Push(int label) {
    const int i = pos_++;
    std::optional<traj::Subtrajectory> closed;
    if (label != 0) {
      if (has_pending_ && i - pending_.end <= d_) {
        pending_.end = i + 1;  // extend (gap 0) or DL-merge (gap <= D)
      } else {
        if (has_pending_) closed = pending_;
        pending_ = {i, i + 1};
        has_pending_ = true;
      }
    } else if (has_pending_ && i >= pending_.end + d_) {
      // The (D+1)-th zero after the run: no future 1 is within DL reach.
      closed = pending_;
      has_pending_ = false;
    }
    return closed;
  }

  /// The run still reachable by future labels (open or inside the DL merge
  /// window), if any.
  std::optional<traj::Subtrajectory> pending() const {
    if (!has_pending_) return std::nullopt;
    return pending_;
  }

  /// Number of labels consumed so far.
  int position() const { return pos_; }

  /// Serializes the tracker position and pending run (the DL merge window)
  /// so a streaming session can be snapshotted mid-trip. `delay_d` is
  /// configuration, not state, and is not written.
  void ExportState(BinaryWriter* w) const {
    w->WriteI32(pos_);
    w->WriteU8(has_pending_ ? 1 : 0);
    w->WriteI32(pending_.begin);
    w->WriteI32(pending_.end);
  }

  /// Restores a previously exported tracker state, validating internal
  /// consistency (a corrupt snapshot must fail cleanly, never restore a
  /// tracker whose pending run points outside the label stream).
  Status ImportState(BinaryReader* r) {
    int32_t pos;
    uint8_t has_pending;
    traj::Subtrajectory pending;
    RL4_RETURN_NOT_OK(r->ReadI32(&pos));
    RL4_RETURN_NOT_OK(r->ReadU8(&has_pending));
    RL4_RETURN_NOT_OK(r->ReadI32(&pending.begin));
    RL4_RETURN_NOT_OK(r->ReadI32(&pending.end));
    if (pos < 0 || has_pending > 1) {
      return Status::InvalidArgument("run tracker state corrupt");
    }
    if (has_pending &&
        (pending.begin < 0 || pending.begin >= pending.end ||
         pending.end > pos)) {
      return Status::InvalidArgument(
          "run tracker pending run out of bounds");
    }
    pos_ = pos;
    has_pending_ = has_pending != 0;
    pending_ = has_pending ? pending : traj::Subtrajectory{0, 0};
    return Status::OK();
  }

 private:
  int d_;
  int pos_ = 0;
  bool has_pending_ = false;
  traj::Subtrajectory pending_{0, 0};
};

/// RNEL rule (paper Section IV-E). Returns 0/1 when the label of the current
/// segment is deterministic given the previous segment's label and the graph
/// degrees, or -1 when the policy must decide.
int RnelDeterministicLabel(const roadnet::RoadNetwork& net,
                           traj::EdgeId prev_edge, int prev_label,
                           traj::EdgeId cur_edge);

class OnlineDetector {
 public:
  OnlineDetector(const roadnet::RoadNetwork* net,
                 const Preprocessor* preprocessor, const RsrNet* rsr,
                 const AsdNet* asd, DetectorConfig config);

  /// Streaming detection session over one trajectory. The SD pair and start
  /// time are known at trip start (ride-hailing setting).
  class Session {
   public:
    Session(const OnlineDetector* owner, traj::SdPair sd, double start_time);

    /// Consumes the next road segment, returning its (pre-DL) label: the
    /// owner's FeedBatch with this one session.
    int Feed(traj::EdgeId edge);

    /// Marks the trajectory complete: forces the last label to 0 and applies
    /// Delayed Labeling. Returns the final labels. Any run not yet surfaced
    /// through TakeNewlyClosedRuns (the open tail, a pending run the
    /// forced-normal destination shrank) becomes takable after this call.
    std::vector<uint8_t> Finish();

    /// Anomalous subtrajectories formed so far (with DL applied to the
    /// already-seen prefix). Usable mid-stream for monitoring. O(runs), not
    /// O(points): the run list is maintained incrementally by Feed.
    std::vector<traj::Subtrajectory> CurrentAnomalies() const;

    /// Drains the runs that became final since the last call: Delayed
    /// Labeling can no longer extend or merge them, and boundary trimming
    /// has been applied. Each run is returned exactly once, in stream
    /// order — a caller alerting on these never re-reports or skips a run
    /// when DL merges fragments, and never rescans the trip.
    std::vector<traj::Subtrajectory> TakeNewlyClosedRuns();

    /// The trimmed anomalous run still open or inside the DL merge window,
    /// if any. This is what an eviction must surface so that an in-progress
    /// anomaly is not silently dropped.
    std::optional<traj::Subtrajectory> OpenRun() const;

    const std::vector<uint8_t>& labels() const { return labels_; }

    /// The road segments fed so far, in order (parallel to labels() once the
    /// session is finished). This is the label-harvesting surface for online
    /// learning: a finished trip's (edges, final labels) pair is a fresh
    /// training sample.
    const std::vector<traj::EdgeId>& edges() const { return edges_; }

    /// Moves the edge history out of a finished session whose owner hands
    /// it on (serve::FleetMonitor's trip-finalized event); edges() is empty
    /// afterwards.
    std::vector<traj::EdgeId> TakeEdges() {
      RL4_CHECK(finished_);
      return std::move(edges_);
    }

    traj::SdPair sd() const { return sd_; }
    double start_time() const { return start_time_; }
    bool finished() const { return finished_; }

    /// All runs finalized so far (post-DL, post-trim), in stream order.
    const std::vector<traj::Subtrajectory>& closed_runs() const {
      return closed_runs_;
    }

    /// Serializes every piece of live per-trip state — SD pair, fed
    /// edge/label history, LSTM hidden/cell vectors, RunTracker (the
    /// Delayed-Labeling window), closed/undrained runs, and the RNG stream
    /// position — so that importing into a fresh session of an identical
    /// model resumes the remaining label/alert stream bit-identically.
    void ExportState(BinaryWriter* w) const;

    /// Restores a state exported by ExportState. The session must belong to
    /// a detector with the same road network and recurrent state size as
    /// the exporter (hidden vectors are restored verbatim). Every field of
    /// a corrupt or mismatched record fails with a clean Status; on error
    /// the session is left untouched.
    Status ImportState(BinaryReader* r);

   private:
    friend class OnlineDetector;  // FeedBatch drives sessions directly

    /// DL merge followed by route-level boundary trimming.
    void Postprocess(std::vector<uint8_t>* labels) const;
    void TrimRunBoundaries(std::vector<uint8_t>* labels) const;
    /// Walks `run`'s ends inward past edges lying on a normal route of the
    /// group; may return an empty range.
    traj::Subtrajectory TrimmedRun(traj::Subtrajectory run) const;
    /// Trims a DL-final run and records it (dropped if trimmed to empty).
    void RecordClosedRun(traj::Subtrajectory run);

    const OnlineDetector* owner_;
    traj::SdPair sd_;
    double start_time_;
    RsrStream stream_;
    traj::EdgeId prev_edge_ = roadnet::kInvalidEdge;
    int prev_label_ = 0;
    std::vector<uint8_t> labels_;
    std::vector<traj::EdgeId> edges_;
    RunTracker tracker_;
    std::vector<traj::Subtrajectory> closed_runs_;
    std::vector<traj::Subtrajectory> newly_closed_;
    bool finished_ = false;
    mutable Rng rng_;
  };

  /// Convenience: runs a full trajectory through a session.
  std::vector<uint8_t> Detect(const traj::MapMatchedTrajectory& t) const;

  /// The per-point step (paper Algorithm 1) for B >= 1 *distinct* sessions
  /// of this detector: advances sessions[b] by edges[b] — NRF lookup, RSRNet
  /// step, RNEL, ASDNet policy, Delayed-Labeling run tracking — with the
  /// RSRNet recurrent step of all B sessions fused into GEMMs and the
  /// policy batched over the sessions RNEL leaves undecided. A session's
  /// labels, runs and (in stochastic mode) RNG draws do not depend on B or
  /// on which sessions share the call. `labels` (optional) receives the B
  /// per-point labels. Session::Feed is the B = 1 call; wider calls are the
  /// model-step amortization under serve::FleetMonitor's micro-batching.
  /// Aborts on an edge id outside the road network.
  void FeedBatch(std::span<Session* const> sessions,
                 std::span<const traj::EdgeId> edges,
                 int* labels = nullptr) const;

  Session StartSession(traj::SdPair sd, double start_time) const {
    return Session(this, sd, start_time);
  }

  /// Rebuilds `old` (a session of any detector over the same road network)
  /// as a session of *this* detector: the label/run/RNG bookkeeping carries
  /// over verbatim — past decisions are history and must not be re-reported
  /// — while the recurrent hidden state is re-primed deterministically by
  /// replaying the fed edge sequence through this detector's RSRNet (NRF
  /// bits recomputed against this detector's preprocessor). This is the
  /// hot-model-swap primitive: future decisions use the new weights with a
  /// hidden state derived from the same history, and no alert is lost or
  /// duplicated because run identity is preserved.
  Session ReprimeSession(const Session& old) const;

  const DetectorConfig& config() const { return config_; }

 private:
  friend class Session;
  const roadnet::RoadNetwork* net_;
  const Preprocessor* preprocessor_;
  const RsrNet* rsr_;
  const AsdNet* asd_;
  DetectorConfig config_;
};

}  // namespace rl4oasd::core
