// HMM map matching in the style of FMM (Yang & Gidófalvi 2018) / Newson &
// Krumm: hidden states are candidate road segments per GPS fix, emission
// probabilities are Gaussian in point-to-segment distance, transition
// probabilities compare great-circle displacement to network distance, and
// Viterbi decodes the most likely segment sequence. Gaps in the decoded
// sequence are stitched with shortest paths so the output is a connected
// map-matched trajectory.
//
// Decoding semantics (pinned; see docs/ARCHITECTURE.md "Map matching" and
// tests/mapmatch_equiv_test.cc):
//   * Fixes with no candidate within `candidate_radius_m` are dropped from
//     the lattice; the output's `start_time` is the first *matched* fix's
//     timestamp.
//   * When no current-layer candidate is network-reachable from the
//     previous layer within the detour bound (a GPS gap), the lattice is
//     partitioned: a new segment starts from emission-only scores. Each
//     maximal segment is decoded by its own Viterbi pass — the output over
//     a segment equals what matching that segment's fixes alone would
//     produce — and a segment's final layer contributes its
//     highest-scoring candidate (ties: lowest candidate index in the
//     (distance, edge id) candidate order).
//   * Across a segment boundary, `GapPolicy::kBridge` (default) stitches
//     with an unbounded shortest path when one exists and otherwise splits
//     the output; `GapPolicy::kSplit` always splits. Match() returns the
//     piece spanning the most matched fixes (ties: earliest); use
//     MatchSegments() for all pieces. A whole-trajectory failure now
//     requires an empty candidate lattice, not merely one unbridgeable gap.
//
// Two transition kernels produce identical output by contract: the fast
// kernel (reusable epoch-stamped bounded Dijkstra with target early-
// termination and exact dominance pruning) behind Match()/MatchBatch(), and
// the seed-era reference kernel (one fresh hash-map Dijkstra per
// (layer, candidate)) behind MatchReference(), kept as the equivalence
// oracle for tests and benches.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "mapmatch/spatial_index.h"
#include "roadnet/road_network.h"
#include "roadnet/shortest_path.h"
#include "traj/types.h"

namespace rl4oasd::mapmatch {

/// What to do at a GPS gap (a lattice segment boundary) when assembling the
/// output edge sequence.
enum class GapPolicy : uint8_t {
  kBridge = 0,  // stitch with a shortest path when one exists, else split
  kSplit = 1,   // always split into independent pieces at the gap
};

struct HmmConfig {
  double gps_sigma_m = 15.0;       // emission noise scale
  double candidate_radius_m = 60;  // candidate search radius
  size_t max_candidates = 6;
  double transition_beta = 2.0;    // penalty scale for route-length mismatch
  double max_network_detour = 5.0; // bound on network/GC distance ratio
  GapPolicy gap_policy = GapPolicy::kBridge;
  // Bound (meters) of the precomputed edge-distance table built at matcher
  // construction (FMM's UBODT). Layers whose detour bound fits under it
  // answer transitions by table lookup; wider layers fall back to the live
  // bounded Dijkstra, with identical distances either way. 0 disables the
  // table (and its one-time O(E) build).
  double transition_table_bound_m = 600.0;
};

class HmmMapMatcher;

namespace internal {

/// One lattice layer: the scored candidates of one retained GPS fix.
struct Layer {
  size_t point_index = 0;    // index of the fix in the raw point stream
  roadnet::LatLon pos;       // fix position (transition great-circle anchor)
  double t = 0.0;            // fix timestamp (piece start times)
  uint32_t first = 0;        // offset of the layer's first node
  uint32_t count = 0;
  bool segment_start = false;  // no scored transition from the previous layer
};

/// One lattice node: a candidate of one layer with its Viterbi state. The
/// fields a layer step reads together share one 24-byte record, so a step
/// touches one cold array, not one per field.
struct Node {
  roadnet::EdgeId edge = roadnet::kInvalidEdge;
  int32_t back = -1;        // best previous-layer candidate; -1 = none
  double distance_m = 0.0;  // point-to-segment distance (emission input)
  double score = 0.0;       // best log-probability of a path ending here
};
static_assert(sizeof(Node) == 24);

/// Flattened Viterbi lattice, grown one layer at a time (the streaming
/// matcher appends as fixes arrive; batch matching appends in a loop). A
/// layer's nodes are nodes[first, first + count), in the candidate query's
/// (distance, edge id) order.
struct Lattice {
  std::vector<Layer> layers;
  std::vector<Node> nodes;  // layer-major

  void Clear() {
    layers.clear();
    nodes.clear();
  }
};

/// Reusable per-thread match state: the candidate query's output buffer,
/// the bounded edge-graph Dijkstra's epoch-stamped arrays, and the lattice
/// storage. One instance per thread; reusing one across consecutive Match()
/// calls makes matching allocation-free in steady state.
struct MatchScratch {
  std::vector<EdgeCandidate> qcands;  // per-fix candidate query output
  roadnet::EdgeDijkstra dijkstra;
  std::vector<roadnet::EdgeId> targets;
  Lattice lattice;
};

enum class Kernel : uint8_t { kFast = 0, kReference = 1 };

/// Queries candidates for `pt` and appends one scored layer to `lat`.
/// Returns false (lattice unchanged) when no candidate is in range.
bool AppendLayer(const HmmMapMatcher& matcher, const traj::RawPoint& pt,
                 size_t point_index, Kernel kernel, MatchScratch* scratch,
                 Lattice* lat);

/// Backtracks the lattice and assembles the output pieces under the
/// matcher's gap policy. `best` indexes the piece with the most matched
/// fixes (ties: earliest). Pure function of the lattice: calling it does
/// not invalidate the lattice, so a streaming caller may decode mid-stream
/// and keep feeding.
struct DecodedPieces {
  std::vector<traj::MapMatchedTrajectory> pieces;
  size_t best = 0;
};
Result<DecodedPieces> Decode(const HmmMapMatcher& matcher, const Lattice& lat,
                             int64_t id);

}  // namespace internal

/// Stateless matcher: Match()/MatchBatch()/MatchSegments() are const and
/// safe to call concurrently (each call uses its own scratch, or the one the
/// caller passes in — pass one scratch per thread).
class HmmMapMatcher {
 public:
  using Scratch = internal::MatchScratch;

  explicit HmmMapMatcher(const roadnet::RoadNetwork* net, HmmConfig config = {});

  /// Matches one raw trajectory with the fast kernel. Fails if no candidate
  /// lattice can be built (e.g. all fixes are off-network). With multiple
  /// gap-split pieces, returns the piece spanning the most matched fixes.
  Result<traj::MapMatchedTrajectory> Match(const traj::RawTrajectory& raw) const;

  /// Same, reusing the caller's scratch (allocation-free in steady state).
  Result<traj::MapMatchedTrajectory> Match(const traj::RawTrajectory& raw,
                                           Scratch* scratch) const;

  /// Matches one raw trajectory into every gap-split piece, in time order
  /// (one piece when the trajectory has no unbridged gap). Each piece is
  /// connected and carries the timestamp of its own first matched fix.
  Result<std::vector<traj::MapMatchedTrajectory>> MatchSegments(
      const traj::RawTrajectory& raw, Scratch* scratch = nullptr) const;

  /// Matches a batch of trajectories across `threads` workers (clamped to
  /// [1, batch size]). Output order is deterministic and thread-count
  /// invariant: result i corresponds to input i and is identical to
  /// Match(raw[i]).
  std::vector<Result<traj::MapMatchedTrajectory>> MatchBatch(
      const std::vector<traj::RawTrajectory>& raws, int threads = 1) const;

  /// The seed-era reference kernel (fresh hash-map bounded Dijkstra per
  /// (layer, candidate)). Contract: output identical to Match() — this is
  /// the oracle the equivalence suite and bench_mapmatch compare against.
  Result<traj::MapMatchedTrajectory> MatchReference(
      const traj::RawTrajectory& raw) const;

  const roadnet::RoadNetwork* network() const { return net_; }
  const HmmConfig& config() const { return config_; }
  const SpatialIndex& index() const { return index_; }
  const roadnet::EdgeDistanceTable& transition_table() const { return table_; }

 private:
  Result<traj::MapMatchedTrajectory> MatchImpl(const traj::RawTrajectory& raw,
                                               internal::Kernel kernel,
                                               Scratch* scratch) const;

  const roadnet::RoadNetwork* net_;
  HmmConfig config_;
  SpatialIndex index_;
  roadnet::EdgeDistanceTable table_;  // immutable after ctor; shared by threads
};

}  // namespace rl4oasd::mapmatch
